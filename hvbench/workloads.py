"""Seeded workloads of the hatvol benchmark.

A workload is a list of CLI jobs plus the input files they read, made
from the seed alone: no call into hatvol builds an input. Each job
carries a `check` record that names what the mathematics fixes about
its answer, for checker.py. The probe is the single job that the
cold-process metric times.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Job:
    argv: list
    check: dict


@dataclass
class Workload:
    name: str
    why: str
    files: dict  # file name -> JSON document
    jobs: list
    probe: Job


def rational(x):
    """A rational in the CLI's "p/q" (or "p") format."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _pair(coeffs):
    return {"type": "monomial_pair", "n": len(coeffs), "coeffs": [rational(a) for a in coeffs]}


# ---------------------------------------------------------------------------
# scan-n2


def _scan_n2(seed):
    rng = random.Random(f"scan-n2/{seed}")
    files = {"plane.json": _pair((0, 0))}
    jobs = [
        Job(
            ["scan", "--model", "plane.json", "--c", "1/8", "--k-min", "2", "--k-max", "8"],
            {"kind": "scan", "coeffs": ["0", "0"], "c": "1/8", "k_min": 2, "k_max": 8},
        )
    ]
    # Two seeded pairs, each also with its coefficients swapped: the LP's
    # pivot count grows with a_1 - a_2, and the swapped twin keeps the
    # total work of a seed near that of any other seed.
    drawn = [[Fraction(rng.randrange(q), q) for q in (rng.randint(2, 9), rng.randint(2, 9))] for _ in range(2)]
    for i, coeffs in enumerate(drawn + [c[::-1] for c in drawn]):
        name = f"pair{i}.json"
        files[name] = _pair(coeffs)
        jobs.append(
            Job(
                ["hatl", "--model", name, "--c", "1/8", "--k", "60", "--mode", "upper"],
                {"kind": "hatl", "mode": "upper", "coeffs": [rational(a) for a in coeffs], "c": "1/8", "k": 60},
            )
        )
    probe = Job(
        ["hatl", "--model", "plane.json", "--c", "1/8", "--k", "6"],
        {"kind": "hatl", "mode": "exact", "coeffs": ["0", "0"], "c": "1/8", "k": 6},
    )
    return Workload(
        name="scan-n2",
        why=(
            "exact n=2 scan: every one of ~6.8k ideals pays a Fraction LP plus the Howald "
            "cross-check; upper-mode jobs send few ~60-generator ideals through the LP alone"
        ),
        files=files,
        jobs=jobs,
        probe=probe,
    )


# ---------------------------------------------------------------------------
# ideals-n3

N3_POWER = 4
N3_STRATA = tuple(range(3, 13))  # minimal-generator counts, equally many ideals each
N3_PER_STRATUM = 4


def _random_height_map(rng, k):
    """A staircase of an ideal between m^k and m, heights biased upward
    (the larger of two uniform draws) so every stratum is reachable."""
    heights = {}
    for x in range(k):
        for y in range(k - x):
            top = k - x - y
            if x > 0:
                top = min(top, heights[(x - 1, y)])
            if y > 0:
                top = min(top, heights[(x, y - 1)])
            lo = 1 if (x, y) == (0, 0) else 0
            heights[(x, y)] = max(rng.randint(lo, top), rng.randint(lo, top))
    return heights


def _gens_from_heights(heights, k):
    inside = {(x, y, z) for (x, y), h in heights.items() for z in range(h)}
    gens = []
    for u in itertools.product(range(k + 1), repeat=3):
        if u in inside:
            continue
        if all(u[i] == 0 or tuple(u[j] - int(j == i) for j in range(3)) in inside for i in range(3)):
            gens.append(list(u))
    return gens


def stratified_ideals(seed):
    """N3_PER_STRATUM distinct ideals for each generator count in N3_STRATA."""
    rng = random.Random(f"ideals-n3/{seed}")
    chosen = {count: [] for count in N3_STRATA}
    seen = set()
    while any(len(v) < N3_PER_STRATUM for v in chosen.values()):
        gens = _gens_from_heights(_random_height_map(rng, N3_POWER), N3_POWER)
        key = tuple(map(tuple, gens))
        bucket = chosen.get(len(gens))
        if bucket is None or len(bucket) == N3_PER_STRATUM or key in seen:
            continue
        seen.add(key)
        bucket.append(gens)
    return [gens for count in N3_STRATA for gens in chosen[count]]


def _ideals_n3(seed):
    files = {"space.json": _pair((0, 0, 0))}
    jobs = []
    for i, gens in enumerate(stratified_ideals(seed)):
        name = f"ideal{i:02d}.json"
        files[name] = {"n": 3, "gens": gens}
        jobs.append(Job(["lct", "--model", "space.json", "--ideal", name], {"kind": "lct", "gens": gens}))
        jobs.append(Job(["mult", "--ideal", name], {"kind": "mult", "gens": gens}))
    jobs.append(
        Job(
            ["hatl", "--model", "space.json", "--c", "1/24", "--k", "3"],
            {"kind": "hatl", "mode": "exact", "coeffs": ["0", "0", "0"], "c": "1/24", "k": 3},
        )
    )
    probe_gens = [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 1, 0], [0, 2, 1], [1, 0, 2]]
    files["probe.json"] = {"n": 3, "gens": probe_gens}
    probe = Job(["lct", "--model", "space.json", "--ideal", "probe.json"], {"kind": "lct", "gens": probe_gens})
    return Workload(
        name="ideals-n3",
        why=(
            "n=3 lct with its Newton-polyhedron cross-check, and multiplicities: facets, "
            "vertices_from_h and hull volumes do the work, the LP only a few percent"
        ),
        files=files,
        jobs=jobs,
        probe=probe,
    )


# ---------------------------------------------------------------------------
# toric-cones


def _polygon_from_edges(edges):
    """Closed lattice polygon walking the given edge vectors, listed by angle."""
    vertices = [(0, 0)]
    for dx, dy in edges[:-1]:
        x, y = vertices[-1]
        vertices.append((x + dx, y + dy))
    return vertices


def _cone_over(polygon):
    return [[x, y, 1] for x, y in polygon]


_HALF_TWELVE = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1)]
_TWELVE_GON = _polygon_from_edges(_HALF_TWELVE + [(-a, -b) for a, b in _HALF_TWELVE])
_CUBE = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]

# Fano bases: moment polygon (its vertices), (n-1)! vol, whether the
# barycenter is the interior lattice point, the index q used for qbound,
# and the normalized volume of the cone vertex (None: irrational).
FANO_BASES = {
    "p2": ([[-1, -1], [2, -1], [-1, 2]], "9", True, 3, "9"),
    "p1xp1": ([[-1, -1], [1, -1], [1, 1], [-1, 1]], "8", True, 2, "8"),
    "dp6": ([[-1, 0], [0, -1], [1, -1], [1, 0], [0, 1], [-1, 1]], "6", True, 1, "6"),
    "p112": ([[-1, -1], [-1, 1], [3, -1]], "8", False, 2, "27/4"),
    "tri6": ([[-1, -1], [-1, 1], [2, -1]], "6", False, 1, "9/2"),
    "blowup": ([[-1, -1], [2, -1], [0, 1], [-1, 1]], "8", False, 1, None),
}

# (46 + 13 sqrt 13) / 12, the normalized volume of the cone over the
# blow-up of P2 in a point
BLOWUP_VALUE = (46 + 13 * 13**0.5) / 12

# Other cones: model document and normalized volume. The polygons are
# centrally symmetric, so the minimizer sits over the center c, and the
# value is 2 area{u : <u, v - c> >= -1 for every vertex v}.
TORIC_CONES = {
    "hexagon": ({"type": "toric", "rays": _cone_over([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])}, "6"),
    "octagon": (
        {"type": "toric", "rays": _cone_over([(2, 1), (1, 2), (-1, 2), (-2, 1), (-2, -1), (-1, -2), (1, -2), (2, -1)])},
        "4/3",
    ),
    "dodecagon": ({"type": "toric", "rays": _cone_over(_TWELVE_GON)}, "4/5"),
    "p3": ({"type": "fano_cone", "polytope": [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]], "r": 1}, "64"),
    "cube": ({"type": "fano_cone", "polytope": _CUBE, "r": 1}, "48"),
    "orthant3": ({"type": "toric", "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "27"),
    "orthant4": ({"type": "toric", "rays": [[int(i == j) for j in range(4)] for i in range(4)]}, "256"),
}


def random_unimodular(rng, dim):
    """A signed permutation times one elementary shear (entries -1, 0, 1)."""
    perm = list(range(dim))
    rng.shuffle(perm)
    matrix = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(dim)] for i in range(dim)]
    i, j = rng.sample(range(dim), 2)
    s = rng.choice((-1, 0, 1))
    matrix[i] = [a + s * b for a, b in zip(matrix[i], matrix[j])]
    return matrix


def _apply(matrix, point, shift=None):
    image = [sum(a * x for a, x in zip(row, point)) for row in matrix]
    return image if shift is None else [x + t for x, t in zip(image, shift)]


def transform_model(rng, model):
    """A lattice-equivalent copy: every invariant the benchmark checks is unchanged."""
    if model["type"] == "toric":
        g = random_unimodular(rng, len(model["rays"][0]))
        return {"type": "toric", "rays": [_apply(g, r) for r in model["rays"]]}
    dim = len(model["polytope"][0])
    g = random_unimodular(rng, dim)
    shift = [rng.choice((-1, 0, 1)) for _ in range(dim)]
    return {"type": "fano_cone", "polytope": [_apply(g, v, shift) for v in model["polytope"]], "r": 1}


def _toric_cones(seed):
    rng = random.Random(f"toric-cones/{seed}")
    files = {}
    jobs = []
    for name, (polytope, degree, semistable, q, value) in FANO_BASES.items():
        fname = f"{name}.json"
        files[fname] = transform_model(rng, {"type": "fano_cone", "polytope": polytope, "r": 1})
        jobs.append(Job(["hvol", "--model", fname], {"kind": "hvol", "value": value}))
        jobs.append(Job(["cone", "--model", fname], {"kind": "cone", "degree": degree, "rays": len(polytope)}))
        jobs.append(
            Job(
                ["qbound", "--model", fname, "--q", str(q)],
                {"kind": "qbound", "value": rational(q * Fraction(degree)), "limit": "27", "oracle": semistable},
            )
        )
    for name, (model, value) in TORIC_CONES.items():
        fname = f"{name}.json"
        files[fname] = transform_model(rng, model)
        jobs.append(Job(["hvol", "--model", fname], {"kind": "hvol", "value": value}))
    files["probe.json"] = {"type": "fano_cone", "polytope": FANO_BASES["p2"][0], "r": 1}
    probe = Job(["hvol", "--model", "probe.json"], {"kind": "hvol", "value": "9"})
    return Workload(
        name="toric-cones",
        why=(
            "toric hvol: the grid search plus Nelder-Mead dominates and grows with the ray "
            "count; the lazy scipy import lands here"
        ),
        files=files,
        jobs=jobs,
        probe=probe,
    )


GENERATORS = {"scan-n2": _scan_n2, "ideals-n3": _ideals_n3, "toric-cones": _toric_cones}


def build(name, seed):
    return GENERATORS[name](seed)
