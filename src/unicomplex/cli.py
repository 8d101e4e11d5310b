"""Command-line front end with deterministic, machine-readable reports.

Every command prints one report (json, csv, or text).  Reports are a pure
function of the arguments and the artifact version: keys are emitted
sorted, all integers are rendered as decimal strings, and wall-clock
timing is only included on request (it is the one nondeterministic field).

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .bhargava import INTEGERS, explicit, generalized_factorials, geometric, \
    p_ordering
from .buchstaber import buchstaber_bounds, min_rank_search, zeta_theta_bounds
from .errors import AcyclicityError, InputError, ResourceLimitError
from .homology import reduced_homology, reisner_check
from .morse import critical_cells, greedy_matching, check_acyclic, \
    morse_summary, pivot_free_facet_count
from .scomplex import format_facet_list, parse_facet_list
from .shelling import ShellingOrder, construct_shelling_fp, is_shifted, \
    verify_shelling
from .universal_fp import (
    UniversalKind,
    build_universal,
    eq_an_basis_count,
    formula_f_vector,
    sphere_count,
    standard_pivot_ids,
)
from .verify import FP_PAIRS, run_all
from .zlattice import (
    build_truncated_universal_z,
    critical_family_sigma,
    enumerate_z_lines,
    parse_quasitoric_pair,
    validate_quasitoric_pair,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- report plumbing ----------------------------------------------------------


def _stringify(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    return obj


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, obj))


def emit_report(report, fmt="json"):
    report = _stringify(report)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = []
        _flatten(report, "", rows)
        lines = ["key,value"]
        for k, v in rows:
            v = str(v).replace('"', '""')
            lines.append(f'{k},"{v}"')
        return "\n".join(lines) + "\n"
    if fmt == "text":
        rows = []
        _flatten(report, "", rows)
        width = max((len(k) for k, _ in rows), default=0)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows) + "\n"
    raise UsageError(f"unknown format {fmt!r}")


def _report(args, results):
    rep = {
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("command", "func", "format", "timing") and v is not None
        },
        "results": results,
        "version": __version__,
    }
    return rep


# -- shared argument helpers --------------------------------------------------


class _Parsed(str):
    """An argparse value kept as typed, so reports echo it unchanged; the
    parsed form is in `values`."""

    def __new__(cls, text, values):
        out = super().__new__(cls, text)
        out.values = values
        return out


def _int_list(text):
    """argparse type: comma-separated integers."""
    try:
        return _Parsed(text, tuple(int(t) for t in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _pair_list(text):
    """argparse type: p,n pairs separated by ';'."""
    pairs = tuple(_int_list(chunk).values for chunk in text.split(";"))
    if any(len(pair) != 2 for pair in pairs):
        raise argparse.ArgumentTypeError(
            f"expected p,n pairs separated by ';', got {text!r}"
        )
    return _Parsed(text, pairs)


def _add_universal_args(sub, required=True):
    sub.add_argument("--variant", choices=("X", "K"), required=required)
    sub.add_argument("--p", type=int, required=required)
    sub.add_argument("--n", type=int, required=required)
    sub.add_argument("--budget", type=int, default=10**7)


def _get_complex(args):
    if getattr(args, "facets", None):
        with open(args.facets) as fh:
            return parse_facet_list(fh.read()), None
    if args.variant is None or args.p is None or args.n is None:
        raise UsageError("give either --facets FILE or --variant/--p/--n")
    kind = UniversalKind(args.variant, args.p, args.n)
    return build_universal(kind, budget=args.budget), kind


def _fv(K):
    return {"f_vector": list(K.f_vector().entries), "euler": K.f_vector().euler}


# -- subcommands --------------------------------------------------------------


def cmd_build(args):
    if args.ring == "z":
        if args.variant is None or args.n is None or args.max_norm is None:
            raise UsageError("--ring z needs --variant, --n and --max-norm")
        K = build_truncated_universal_z(args.variant, args.n, args.max_norm,
                                        budget=args.budget)
        name = f"{args.variant}(Z^{args.n}) truncated at norm {args.max_norm}"
    else:
        K, kind = _get_complex(args)
        name = str(kind)
    results = {"complex": name, "n_vertices": K.n_vertices,
               "n_simplices": K.n_simplices, **_fv(K)}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_facet_list(K, header=name))
        results["written"] = args.out
    return 0, results


def cmd_fvector(args):
    kind = UniversalKind(args.variant, args.p, args.n)
    results = {}
    formula = formula_f_vector(kind, link_dim=args.link_dim)
    results["formula"] = list(formula.entries)
    results["euler"] = formula.euler
    sc = sphere_count(kind, link_dim=args.link_dim)
    results["sphere_dimension"] = sc.dimension
    results["sphere_count"] = sc.count
    if args.method in ("enumeration", "both") and args.link_dim is None:
        K = build_universal(kind, budget=args.budget)
        results["enumeration"] = list(K.f_vector().entries)
        results["match"] = results["enumeration"] == results["formula"]
        if not results["match"]:
            return 1, results
    return 0, results


def cmd_homology(args):
    K, kind = _get_complex(args)
    if args.link_dim is not None:
        if not 0 <= args.link_dim <= K.dim:
            raise InputError(
                f"link dimension {args.link_dim} out of range [0, {K.dim}]"
            )
        s = K.sorted_simplices(args.link_dim)[0]
        K = K.link(s)
    prof = reduced_homology(K, budget=args.budget)
    results = {
        "betti": list(prof.betti),
        "torsion": [list(t) for t in prof.torsion],
        "torsion_free": prof.torsion_free,
        **_fv(K),
    }
    if kind is not None and args.link_dim is None:
        results["sphere_count"] = sphere_count(kind).count
    if args.reisner:
        ok, witness = reisner_check(K, orbit_sample=kind is not None)
        results["cohen_macaulay"] = ok
        if witness is not None:
            results["reisner_witness"] = [list(witness[0]), witness[1]]
    return 0, results


def cmd_morse(args):
    K, kind = _get_complex(args)
    if args.pivots:
        pivots = list(args.pivots.values)
    elif kind is not None:
        pivots = list(standard_pivot_ids(K))
    else:
        raise UsageError("--pivots is required for a facet-list complex")
    summary = morse_summary(K, pivots)
    results = {
        "pivots": list(summary.pivot_schedule),
        "pairs": summary.n_pairs,
        "acyclic": summary.acyclic,
        "critical": {str(d): c for d, c in summary.critical_by_dim.items()},
        "euler": summary.euler,
        "euler_consistent": summary.euler_consistent,
        "middle_critical": summary.middle_critical,
        "pivot_free_facets": pivot_free_facet_count(K, pivots),
    }
    if kind is not None and kind.variant == "K":
        results["axis_avoiding_basis_count"] = eq_an_basis_count(K)
    return 0, results


def cmd_shelling(args):
    if args.order:
        K, _ = _get_complex(args)
        label_to_id = {str(lab): v for v, lab in K.labels.items()}
        facets = []
        with open(args.order) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    facets.append(
                        tuple(sorted(label_to_id[t] for t in line.split()))
                    )
                except KeyError as exc:
                    raise InputError(f"unknown vertex label {exc} in order file")
        ok, idx = verify_shelling(K, ShellingOrder(tuple(facets)))
        results = {"verified": ok, "n_facets": len(facets)}
        if not ok:
            results["first_failing_index"] = idx
        return (0 if ok else 1), results
    kind = UniversalKind(args.variant, args.p, args.n)
    K = build_universal(kind, budget=args.budget)
    order = construct_shelling_fp(kind, K)
    results = {"constructed": True, "n_facets": len(order.facets), "verified": True}
    if args.out:
        with open(args.out, "w") as fh:
            for f in order.facets:
                fh.write(" ".join(str(K.labels[v]) for v in f) + "\n")
        results["written"] = args.out
    return 0, results


def cmd_shifted(args):
    K, _ = _get_complex(args)
    ok, witness = is_shifted(K, max_vertices=args.max_vertices)
    results = {"shifted": ok}
    if witness:
        results["labeling"] = {str(K.labels[v]): lab for v, lab in witness.items()}
    return 0, results


def cmd_buchstaber(args):
    K, _ = _get_complex(args)
    primes = args.primes.values
    results = {}
    for p in primes:
        rep = buchstaber_bounds(K, p)
        entry = {
            "m": rep.m,
            "gamma": rep.gamma,
            "lower": rep.lower,
            "upper_dim": rep.upper_dim,
            "upper_log": rep.upper_log,
            "method": rep.method,
        }
        if rep.s_fp is not None:
            entry["s_fp"] = rep.s_fp
        results[f"p{p}"] = entry
    return 0, results


def cmd_zcheck(args):
    if args.pair:
        with open(args.pair) as fh:
            pair = parse_quasitoric_pair(fh.read())
        ok, witness = validate_quasitoric_pair(pair)
        results = {"pair_valid": ok, "n": pair.n, "m": pair.m}
        if not ok:
            results["failing_facet"] = [
                str(pair.dual_complex.labels[v]) for v in witness
            ]
        return (0 if ok else 1), results
    K = build_truncated_universal_z("K", args.n, args.max_norm, budget=args.budget)
    pivots = list(range(K.n_vertices))
    matching = greedy_matching(K, pivots)
    ok, _ = check_acyclic(K, matching)
    census = {str(d): len(c) for d, c in critical_cells(matching).items()}
    lab_to_id = {lab: v for v, lab in K.labels.items()}
    sigmas = {}
    if args.n >= 2:
        k = 1
        while True:
            sigma = critical_family_sigma(args.n, k)
            if not all(l in lab_to_id for l in sigma):
                break
            simp = tuple(sorted(lab_to_id[l] for l in sigma))
            sigmas[f"sigma_{k}"] = simp in set(matching.critical)
            k += 1
    results = {
        "lines": [str(l) for l in enumerate_z_lines(args.n, args.max_norm)],
        **_fv(K),
        "w_matching_acyclic": ok,
        "critical": census,
        "sigma_family_critical": sigmas,
    }
    return (0 if ok and all(sigmas.values()) else 1), results


def _parse_ground_set(spec):
    if spec == "integers":
        return INTEGERS
    if spec.startswith("geometric:"):
        try:
            _, a, q = spec.split(":")
            return geometric(int(a), int(q))
        except ValueError as exc:
            raise UsageError(f"bad geometric spec {spec!r}") from exc
    if spec.startswith("list:"):
        try:
            return explicit(int(t) for t in spec[5:].split(","))
        except ValueError as exc:
            raise UsageError(f"bad list spec {spec!r}") from exc
    raise UsageError(f"unknown ground set {spec!r}")


def cmd_bhargava(args):
    S = _parse_ground_set(args.set)
    primes = args.primes.values if args.primes else ()
    if args.k < 0:
        return 0, {}
    # one p-ordering per prime serves every k; an explicit set stops at its
    # last element, where generalized_factorials reports k out of range
    top = args.k if S.kind != "explicit" else min(args.k, len(S.elements) - 1)
    orderings = {}
    for p in primes:
        if p not in orderings:
            orderings[p] = p_ordering(S, p, top)
    results = {}
    for k, fact in enumerate(generalized_factorials(S, args.k)):
        entry = {"factorial": fact}
        for p in primes:
            entry[f"nu_p{p}"] = orderings[p].valuations[k]
        results[f"k{k}"] = entry
    return 0, results


def cmd_verify_all(args):
    pairs = args.pairs.values if args.pairs else FP_PAIRS
    outcome = run_all(fp_pairs=pairs, oracle_samples=args.oracle_samples)
    results = {
        name: {"pass": ok, "detail": detail} for name, ok, detail in outcome
    }
    results["all_passed"] = all(ok for _, ok, _ in outcome)
    return (0 if results["all_passed"] else 1), results


# -- dispatch -----------------------------------------------------------------


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true",
                        default=argparse.SUPPRESS,
                        help="include wall-clock seconds (nondeterministic)")
    parser = _Parser(prog="unicomplex", description=__doc__, parents=[common])
    parser.set_defaults(format="json", timing=False)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser(parents=[common], name="build", help="build a complex and export facets")
    _add_universal_args(s, required=False)
    s.add_argument("--ring", choices=("fp", "z"), default="fp")
    s.add_argument("--max-norm", type=int)
    s.add_argument("--out")
    s.set_defaults(func=cmd_build)

    s = subs.add_parser(parents=[common], name="fvector", help="closed-form and enumerated f-vectors")
    _add_universal_args(s)
    s.add_argument("--link-dim", type=int)
    s.add_argument("--method", choices=("formula", "enumeration", "both"),
                   default="formula")
    s.set_defaults(func=cmd_fvector)

    s = subs.add_parser(parents=[common], name="homology", help="reduced integral homology")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--link-dim", type=int)
    s.add_argument("--reisner", action="store_true",
                   help="include the Cohen-Macaulay criterion verdict")
    s.set_defaults(func=cmd_homology)

    s = subs.add_parser(parents=[common], name="morse", help="greedy matching, acyclicity, census")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--pivots", type=_int_list, help="comma-separated vertex ids")
    s.set_defaults(func=cmd_morse)

    s = subs.add_parser(parents=[common], name="shelling", help="construct or verify a shelling")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--order", help="facet-list file, order significant")
    s.add_argument("--out")
    s.set_defaults(func=cmd_shelling)

    s = subs.add_parser(parents=[common], name="shifted", help="shiftedness with witness labeling")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--max-vertices", type=int, default=10)
    s.set_defaults(func=cmd_shifted)

    s = subs.add_parser(parents=[common], name="buchstaber", help="invariant bounds and values")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--primes", type=_int_list, default="2,3")
    s.set_defaults(func=cmd_buchstaber)

    s = subs.add_parser(parents=[common], name="zcheck", help="Z-lattice suite / quasitoric pairs")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--max-norm", type=int, default=3)
    s.add_argument("--budget", type=int, default=10**6)
    s.add_argument("--pair", help="quasitoric pair file")
    s.set_defaults(func=cmd_zcheck)

    s = subs.add_parser(parents=[common], name="bhargava", help="generalized factorials and nu_k")
    s.add_argument("--set", required=True,
                   help="integers | geometric:a:q | list:1,2,3")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--primes", type=_int_list)
    s.set_defaults(func=cmd_bhargava)

    s = subs.add_parser(parents=[common], name="verify-all", help="run the acceptance suite")
    s.add_argument("--pairs", type=_pair_list, help='override test pairs, e.g. "2,2;3,2"')
    s.add_argument("--oracle-samples", type=int, default=10**4)
    s.set_defaults(func=cmd_verify_all)
    return parser


def dispatch(argv):
    """Execute one command; returns (exit_code, rendered_report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.monotonic()
        code, results = args.func(args)
        report = _report(args, results)
        if args.timing:
            report["timing_seconds"] = f"{time.monotonic() - started:.3f}"
        return code, emit_report(report, args.format)
    except UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except (InputError, FileNotFoundError) as exc:
        return 2, f"input error: {exc}\n"
    except ResourceLimitError as exc:
        return 3, f"resource error: {exc}\n"
    except (AssertionError, AcyclicityError) as exc:
        return 1, f"self-check failed: {exc}\n"


def main(argv=None):
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 or code == 1 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
