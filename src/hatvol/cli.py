"""Command-line front end.

Commands: hvol, lct, mult, colength, hatl, scan, lattice, cone, qbound,
verify. Results are JSON (rationals as "p/q" strings, floats only on
explicitly inexact values); scan and lattice tables can also be emitted
as CSV. Each command takes only the options it reads: --out everywhere
and --format on scan and lattice. No command reads the environment or a
configuration file, so a report depends only on its arguments and its
input files; every work limit is a fixed constant of the package.
Exit codes: 0 success, 2 validation error, 3 budget or non-convergence,
4 internal invariant violation. Errors are machine-readable JSON on
standard error.
"""

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from fractions import Fraction

from . import geometry, invariants, monomials
from .errors import HatvolError, ValidationError
from .models import FanoConeInput, MonomialPair, cone_construction, fano_degree_bound, load_model
from .rationals import format_rational, parse_rational


# most dilations one `lattice --k-range` may ask for
MAX_DILATIONS = 1000


def _read_text(path, kind):
    """The UTF-8 text of an input file; an unreadable one is a validation error."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise ValidationError("missing-file", f"{kind} file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("unreadable-file", f"cannot read {kind} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# input loading


def _load_json(path, kind):
    try:
        return json.loads(_read_text(path, kind))
    except json.JSONDecodeError as exc:
        raise ValidationError("invalid-json", f"{kind} file {path} is not valid JSON: {exc}") from exc


def _load_model(path):
    return load_model(_load_json(path, "model"))


def _load_ideal(path):
    return monomials.MonomialIdeal.from_json(_load_json(path, "ideal"))


def _load_body(path):
    data = _load_json(path, "body")
    try:
        vertices = [[parse_rational(x) for x in v] for v in data["vertices"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError("invalid-body-json", "body document needs a 'vertices' list") from exc
    return geometry.convex_hull(vertices)


def _parse_k_range(text):
    """The dilations of a k-range, refused past MAX_DILATIONS before any
    list of them is built."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) not in (2, 3):
                raise ValidationError("invalid-range", f"bad k-range {text!r}")
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            ks = range(lo, hi + 1, step)
        else:
            ks = [x for x in text.split(",") if x.strip()]
        # slicing a range is arithmetic, and its length here stays small
        if len(ks[: MAX_DILATIONS + 1]) > MAX_DILATIONS:
            raise ValidationError("invalid-range", f"k-range has more than {MAX_DILATIONS} dilations")
        return [int(x) for x in ks]
    except ValueError as exc:
        raise ValidationError("invalid-range", f"bad k-range {text!r}") from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (result_payload, warnings, csv_rows, stats),
# with stats None or a payload of work counters.


def _cmd_hvol(args):
    model = _load_model(args.model)
    result = invariants.hvol(model)
    return result.to_payload(), list(result.warnings), None, None


def _cmd_lct(args):
    model = _load_model(args.model)
    ideal = _load_ideal(args.ideal)
    return invariants.lct(model, ideal).to_payload(), [], None, None


def _cmd_mult(args):
    ideal = _load_ideal(args.ideal)
    value = ideal.multiplicity()
    return {"value": format_rational(value), "exact": True}, [], None, None


def _cmd_colength(args):
    ideal = _load_ideal(args.ideal)
    return {"value": ideal.colength(), "exact": True}, [], None, None


def _cmd_hatl(args):
    model = _load_model(args.model)
    c = parse_rational(args.c)
    stats = invariants.ScanStats()
    value, argmin = invariants.normalized_colength(model, c, args.k, mode=args.mode, stats=stats)
    payload = {
        "value": format_rational(value),
        "argmin": [list(g) for g in argmin.gens],
        "mode": args.mode,
        "c": format_rational(c),
        "k": args.k,
    }
    return payload, [invariants.EQUIVARIANT_WARNING], None, stats.to_payload()


def _cmd_scan(args):
    model = _load_model(args.model)
    if not isinstance(model, MonomialPair):
        raise ValidationError("invalid-model", "scan expects a monomial_pair model")
    c = parse_rational(args.c) if args.c is not None else invariants.default_scan_constant(model.n)
    stats = invariants.ScanStats()
    scan = invariants.colength_convergence_scan(model, c, range(args.k_min, args.k_max + 1), mode=args.mode, stats=stats)
    return scan.to_payload(), list(scan.warnings), scan.csv_rows(), stats.to_payload()


def _cmd_lattice(args):
    body = _load_body(args.body)
    epsilon = parse_rational(args.epsilon) if args.epsilon is not None else Fraction(1, 20)
    probe = geometry.counting_error_probe(body, _parse_k_range(args.k_range), epsilon=epsilon)
    payload = {
        "epsilon": format_rational(probe.epsilon),
        "k0": probe.k0,
        "rows": [{"k": k, "error": format_rational(err)} for k, err in probe.rows],
        "volume": format_rational(body.volume()),
    }
    rows = [("k", "error_num", "error_den")]
    rows += [(k, err.numerator, err.denominator) for k, err in probe.rows]
    return payload, [], rows, None


def _cmd_cone(args):
    model = _load_model(args.model)
    if not isinstance(model, FanoConeInput):
        raise ValidationError("invalid-model", "cone construction expects a fano_cone model")
    toric = cone_construction(model)
    payload = {
        "rays": [list(r) for r in toric.cone.rays],
        "m_covector": [format_rational(x) for x in toric.m_covector],
        "degree_bound": format_rational(fano_degree_bound(model)),
    }
    return payload, [], None, None


def _cmd_qbound(args):
    model = _load_model(args.model)
    if not isinstance(model, FanoConeInput):
        raise ValidationError("invalid-model", "q-bound check expects a fano_cone model")
    report = invariants.q_bound_check(model, args.q)
    return report.to_payload(), [], None, None


def _cmd_verify(args):
    from . import acceptance

    results = acceptance.run_suite(args.suite)
    for result in results:
        print(result.line())
    return acceptance.suite_exit_code(results)


_HANDLERS = {
    "hvol": _cmd_hvol,
    "lct": _cmd_lct,
    "mult": _cmd_mult,
    "colength": _cmd_colength,
    "hatl": _cmd_hatl,
    "scan": _cmd_scan,
    "lattice": _cmd_lattice,
    "cone": _cmd_cone,
    "qbound": _cmd_qbound,
}


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse parser that raises ValidationError where argparse would
    print its usage and exit, so a rejected argument is one JSON error
    line like any other malformed input. Subparsers are built from the
    same class. A negative number, rational ones such as -1/20 included,
    is read as a value, not as a flag, and a flag must be spelled in full
    (--mode is not --model). Parsing leaves no state behind.
    """

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise ValidationError("invalid-arguments", f"{self.prog}: {message}")


def build_parser():
    parser = _ArgumentParser(
        prog="hatvol",
        description="Exact normalized volumes, thresholds and colengths of monomial and toric singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=False, ideal=False, table=False):
        if model:
            p.add_argument("--model", required=True, help="model JSON file")
        if ideal:
            p.add_argument("--ideal", required=True, help="ideal JSON file")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        if table:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("hvol", help="normalized volume of a model")
    common(p, model=True)
    p = sub.add_parser("lct", help="log canonical threshold of an ideal on a model")
    common(p, model=True, ideal=True)
    p = sub.add_parser("mult", help="Hilbert-Samuel multiplicity of an ideal")
    common(p, ideal=True)
    p = sub.add_parser("colength", help="colength of an m-primary ideal")
    common(p, ideal=True)
    p = sub.add_parser("hatl", help="normalized colength at one level k")
    common(p, model=True)
    p.add_argument("--c", required=True, help="colength fraction c (rational)")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--mode", choices=("exact", "upper"), default="exact")
    p = sub.add_parser("scan", help="normalized colength convergence scan")
    common(p, model=True, table=True)
    p.add_argument("--c", help="colength fraction c (rational); default e(m)/(4 n!)")
    p.add_argument("--k-min", dest="k_min", type=int, default=2)
    p.add_argument("--k-max", dest="k_max", type=int, required=True)
    p.add_argument("--mode", choices=("exact", "upper"), default="exact")
    p = sub.add_parser("lattice", help="lattice point counting error probe")
    common(p, table=True)
    p.add_argument("--body", required=True, help="body JSON file with rational vertices")
    p.add_argument("--k-range", dest="k_range", required=True, help="dilations, e.g. 20,40,80 or 2:100")
    p.add_argument("--epsilon", help="error threshold (rational), default 1/20")
    p = sub.add_parser("cone", help="affine cone over a polarized toric base")
    common(p, model=True)
    p = sub.add_parser("qbound", help="divisibility bound q (-K)^(n-1) <= n^n")
    common(p, model=True)
    p.add_argument("--q", required=True, type=int, help="divisibility of the anticanonical class")
    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    return parser


def _emit(args, report, csv_rows):
    if getattr(args, "format", "json") == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerows(csv_rows)
        text = buffer.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError("unwritable-file", f"cannot write output file {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


@functools.cache
def _parser():
    """The parser, built on the first call: parsing never changes it, so
    every later `main` call in the process reuses it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.command == "verify":
            return _cmd_verify(args)
        handler = _HANDLERS[args.command]
        started = time.perf_counter()
        payload, warnings, csv_rows, stats = handler(args)
        job = {"command": args.command, "parameters": {}}
        for key in ("model", "ideal", "body", "c", "k", "k_min", "k_max", "k_range", "mode", "q", "epsilon"):
            value = getattr(args, key, None)
            if value is not None:
                job["parameters"][key.replace("_", "-")] = value
        report = {
            "job": job,
            "result": payload,
            "warnings": warnings,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        if stats is not None:
            report["stats"] = stats
        _emit(args, report, csv_rows)
        return 0
    except HatvolError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
