"""Command-line front end with deterministic, machine-readable reports.

Every command prints one report (json, csv, or text).  Reports are a pure
function of the arguments and the artifact version: keys are emitted
sorted, all integers are rendered as decimal strings, and wall-clock
timing is only included on request (`--timing` adds `timing_seconds`, and
`seconds` per criterion of `verify-all`; these are the only
nondeterministic fields).

Exit codes: 0 success, 1 verification failure, 2 usage or input error
(an unreadable or non-UTF-8 file included), 3 resource budget exceeded.

`dispatch` runs each command with the cyclic garbage collector paused and
restores its prior state afterwards.  A command's complexes are tuples of
ints and lists of ints, which form no reference cycles, yet the
collector's generation scans walk them as they pile up.  Measured
in-process on a 2-core VM, the scans took about 7 of the 71 ms of a
`morse` run on K(F_3^4), while a `gc.collect()` after any benchmark
command found only 33-126 unreachable objects.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from functools import cache

from . import __version__
from .errors import AcyclicityError, InputError, ResourceLimitError
from .scomplex import SIMPLEX_BUDGET, euler_characteristic, facet_lines, \
    format_facet_list, parse_facet_list

# Each command imports the library modules it runs inside its own body, so a
# process loads only those: most commands take a few milliseconds, and
# importing every module would cost more than the command itself.


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- report plumbing ----------------------------------------------------------


def _unprintable():
    return ResourceLimitError(
        f"a report integer has more than {sys.get_int_max_str_digits()} "
        "digits, the interpreter's limit for printing it"
    )


def _stringify(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:
            raise _unprintable() from None
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
            if any(c in k for c in ',"\r\n'):
                k = '"{}"'.format(k.replace('"', '""'))
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


def _count(text):
    """argparse type: an integer >= 0.  A non-integer gets the message that
    `type=int` gives."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _add_budget(sub):
    sub.add_argument("--budget", type=_count, default=SIMPLEX_BUDGET,
                     help="most simplices built or read from a facet file")


def _add_universal_args(sub, required=True):
    sub.add_argument("--variant", choices=("X", "K"), required=required)
    sub.add_argument("--p", type=int, required=required)
    sub.add_argument("--n", type=int, required=required)
    _add_budget(sub)


def _read_text(path):
    """The text of an input file read as UTF-8; one that does not decode is
    an InputError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def _get_complex(args):
    if getattr(args, "facets", None):
        return parse_facet_list(_read_text(args.facets), budget=args.budget), None
    if args.variant is None or args.p is None or args.n is None:
        raise UsageError("give either --facets FILE or --variant/--p/--n")
    from .universal_fp import UniversalKind, build_universal

    kind = UniversalKind(args.variant, args.p, args.n)
    return build_universal(kind, budget=args.budget), kind


def _fv(K):
    f = K.f_vector()
    return {"f_vector": list(f), "euler": euler_characteristic(f)}


# -- subcommands --------------------------------------------------------------


def cmd_build(args):
    if args.ring == "z":
        if args.p is not None:
            raise UsageError("--ring z takes no --p")
        if args.variant is None or args.n is None or args.max_norm is None:
            raise UsageError("--ring z needs --variant, --n and --max-norm")
        from .zlattice import build_truncated_universal_z

        K = build_truncated_universal_z(args.variant, args.n, args.max_norm,
                                        budget=args.budget)
        name = f"{args.variant}(Z^{args.n}) truncated at norm {args.max_norm}"
    else:
        if args.max_norm is not None:
            raise UsageError("--ring fp takes no --max-norm")
        K, kind = _get_complex(args)
        name = str(kind)
    results = {"complex": name, "n_vertices": K.n_vertices,
               "n_simplices": K.n_simplices, **_fv(K)}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_facet_list(K, header=name))
        results["written"] = args.out
    return 0, results


def _refuse_unprintable_formula(kind, link_dim):
    """Refuse, before it is formed, a closed form whose top entry the report
    could not print.  The top entry of the link of an i-simplex (i = -1 for
    the whole complex) is m = n - i - 1 factors p^n - p^j, j <= n - 1, each
    at least p^(n-1) (p - 1), over m! (p - 1)^m for K and m! for X, so it
    is at least p^((n-1) m) / m! > 2^((n-1) m floor(log2 p) - m bitlen(m)).
    It is refused when that exceeds 10^limit < 2^(4 limit).  An
    out-of-range link dimension is left to `formula_f_vector`."""
    limit = sys.get_int_max_str_digits()
    if link_dim is None:
        m = kind.n
    elif 0 <= link_dim < kind.n:
        m = kind.n - link_dim - 1
    else:
        return
    bits = (kind.n - 1) * m * (kind.p.bit_length() - 1) - m * m.bit_length()
    if limit and bits > 4 * limit:
        raise _unprintable()


def cmd_fvector(args):
    from .universal_fp import UniversalKind, build_universal, formula_f_vector, \
        sphere_count

    kind = UniversalKind(args.variant, args.p, args.n)
    # the build, and so its budget refusal, comes before the closed form
    K = None if args.method == "formula" else build_universal(kind, budget=args.budget)
    _refuse_unprintable_formula(kind, args.link_dim)
    formula = formula_f_vector(kind, link_dim=args.link_dim)
    results = {
        "formula": list(formula),
        "euler": euler_characteristic(formula),
        "sphere_dimension": len(formula) - 2,
        "sphere_count": sphere_count(formula),
    }
    if K is not None:
        if args.link_dim is not None:
            K = K.link(K.sorted_simplices(args.link_dim)[0])
        results["enumeration"] = list(K.f_vector())
        results["match"] = results["enumeration"] == results["formula"]
        if not results["match"]:
            return 1, results
    return 0, results


def cmd_homology(args):
    from .homology import reduced_homology, reisner_check

    K, kind = _get_complex(args)
    if args.link_dim is not None:
        if not 0 <= args.link_dim <= K.dim:
            raise InputError(
                f"link dimension {args.link_dim} out of range [0, {K.dim}]"
            )
        s = K.sorted_simplices(args.link_dim)[0]
        K = K.link(s)
    prof = reduced_homology(K)
    results = {
        "betti": list(prof.betti),
        "torsion": [list(t) for t in prof.torsion],
        "torsion_free": prof.torsion_free,
        **_fv(K),
    }
    if kind is not None and args.link_dim is None:
        # build_universal has checked this f-vector against the closed form
        from .universal_fp import sphere_count

        results["sphere_count"] = sphere_count(K.f_vector())
    if args.reisner:
        ok, witness = reisner_check(K, orbit_sample=kind is not None,
                                    profile=prof)
        results["cohen_macaulay"] = ok
        if witness is not None:
            results["reisner_witness"] = [list(witness[0]), witness[1]]
    return 0, results


def cmd_morse(args):
    from .morse import critical_census, greedy_matching

    K, kind = _get_complex(args)
    if args.pivots:
        pivots = list(args.pivots.values)
    elif kind is not None:
        from .universal_fp import standard_pivot_ids

        pivots = list(standard_pivot_ids(kind))
    else:
        raise UsageError("--pivots is required for a facet-list complex")
    matching = greedy_matching(K, pivots)
    census = critical_census(matching)
    euler = euler_characteristic(K.f_vector())
    # the two cells of a pair cancel in the alternating sum, so for any
    # matching the critical cells alone give chi
    if sum((-1) ** d * c for d, c in census.items()) != euler:
        raise AssertionError(f"Euler count mismatch: chi={euler}, census={census}")
    results = {
        "pivots": pivots,
        "pairs": len(matching.pairs),
        "acyclic": True,  # greedy_matching raises on a cycle
        "critical": {str(d): c for d, c in census.items()},
        "euler": euler,
        "euler_consistent": set(census) <= {0, K.dim} and census.get(0) == 1,
    }
    return 0, results


def cmd_shelling(args):
    if args.facets and not args.order:
        raise UsageError(
            "constructing a shelling needs --variant/--p/--n; "
            "--facets needs --order"
        )
    from .shelling import construct_shelling_fp, shelling_h_vector

    K, kind = _get_complex(args)
    if args.order:
        label_to_id = {lab: v for v, lab in K.labels.items()}
        lines = list(facet_lines(_read_text(args.order)))
        try:
            facets = [tuple(sorted(label_to_id[t] for t in toks)) for toks in lines]
        except KeyError as exc:
            raise InputError(f"unknown vertex label {exc} in order file")
        idx, _ = shelling_h_vector(K, facets)
        results = {"verified": idx is None, "n_facets": len(facets)}
        if idx is not None:
            results["first_failing_index"] = idx
        return (0 if idx is None else 1), results
    order = construct_shelling_fp(kind, K)
    results = {"constructed": True, "n_facets": len(order), "verified": True}
    if args.out:
        with open(args.out, "w") as fh:
            for f in order:
                fh.write(" ".join(K.labels[v] for v in f) + "\n")
        results["written"] = args.out
    return 0, results


def cmd_shifted(args):
    from .shelling import is_shifted

    K, _ = _get_complex(args)
    ok, witness = is_shifted(K)
    results = {"shifted": ok}
    if witness:
        results["labeling"] = {K.labels[v]: lab for v, lab in witness.items()}
    return 0, results


def cmd_buchstaber(args):
    from .buchstaber import buchstaber_bounds

    K, _ = _get_complex(args)
    reports = buchstaber_bounds(K, args.primes.values)
    return 0, {f"p{p}": rep for p, rep in reports.items()}


def cmd_zcheck(args):
    if args.pair:
        from .zlattice import parse_quasitoric_pair, validate_quasitoric_pair

        pair = parse_quasitoric_pair(_read_text(args.pair), budget=args.budget)
        ok, witness = validate_quasitoric_pair(pair)
        results = {"pair_valid": ok, "n": pair.n, "m": pair.m}
        if not ok:
            results["failing_facet"] = [pair.dual_complex.labels[v] for v in witness]
        return (0 if ok else 1), results
    from .morse import critical_census, greedy_matching
    from .zlattice import build_truncated_universal_z, sigma_family

    K = build_truncated_universal_z("K", args.n, args.max_norm, budget=args.budget)
    pivots = list(range(K.n_vertices))
    matching = greedy_matching(K, pivots)  # raises on a cycle
    census = {str(d): c for d, c in critical_census(matching).items()}
    critical = set(matching.critical)
    sigmas = {f"sigma_{k}": simp in critical for k, simp in sigma_family(K, args.n)}
    results = {
        "lines": [K.labels[v] for v in K.vertices()],
        **_fv(K),
        "w_matching_acyclic": True,
        "critical": census,
        "sigma_family_critical": sigmas,
    }
    return (0 if all(sigmas.values()) else 1), results


def _parse_ground_set(spec):
    from .bhargava import INTEGERS, explicit, geometric

    if spec == "integers":
        return INTEGERS
    # only the parse is guarded: the library's InputError, a ValueError
    # too, keeps its own message
    if spec.startswith("geometric:"):
        try:
            _, a, q = spec.split(":")
            a, q = int(a), int(q)
        except ValueError as exc:
            raise UsageError(f"bad geometric spec {spec!r}") from exc
        return geometric(a, q)
    if spec.startswith("list:"):
        try:
            elements = [int(t) for t in spec[5:].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad list spec {spec!r}") from exc
        return explicit(elements)
    raise UsageError(f"unknown ground set {spec!r}")


def _refuse_unprintable_factorials(S, k):
    """Refuse, before any p-ordering runs or any entry is formed, a report
    whose largest generalized factorial k!_S the report could not print.
    For the integers k! >= (k/e)^k > 2^(k (floor(log2 k) - 2)), as
    log2 e < 2.  For a geometric set, k!_S = a^k q^(k(k-1)/2) times the
    factors q^j - 1, each at least 1 in absolute value as are a and
    |q| >= 2, so |k!_S| >= |q|^(k(k-1)/2) >= 2^(k(k-1)/2 floor(log2 |q|)).
    It is refused when that bound exceeds 10^limit < 2^(4 limit), as in
    `_refuse_unprintable_formula`.  An explicit set has no bound here: its
    k stops at its last element."""
    limit = sys.get_int_max_str_digits()
    if S.kind == "integers":
        bits = k * (k.bit_length() - 3)
    elif S.kind == "geometric":
        bits = k * (k - 1) // 2 * (abs(S.q).bit_length() - 1)
    else:
        return
    if limit and bits > 4 * limit:
        raise _unprintable()


def cmd_bhargava(args):
    from .bhargava import generalized_factorials, p_ordering
    from .fplin import check_prime

    S = _parse_ground_set(args.set)
    primes = args.primes.values if args.primes else ()
    for p in primes:
        check_prime(p)
    if args.k < 0:
        return 0, {}
    _refuse_unprintable_factorials(S, args.k)
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
            entry[f"nu_p{p}"] = orderings[p][k]
        results[f"k{k}"] = entry
    return 0, results


def cmd_verify_all(args):
    from .verify import FP_PAIRS, ORACLE_SAMPLES, run_all

    if args.oracle_samples is None:
        # resolved here, not in the parser, which then needs no verify
        # import; set on args so that the report echoes it
        args.oracle_samples = ORACLE_SAMPLES
    pairs = args.pairs.values if args.pairs else FP_PAIRS
    outcome = run_all(fp_pairs=pairs, oracle_samples=args.oracle_samples)
    results = {
        name: {"pass": ok, "detail": detail} for name, ok, detail, _ in outcome
    }
    if args.timing:
        for name, _, _, seconds in outcome:
            results[name]["seconds"] = f"{seconds:.3f}"
    results["all_passed"] = all(ok for _, ok, _, _ in outcome)
    return (0 if results["all_passed"] else 1), results


# -- dispatch -----------------------------------------------------------------


@cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call of `dispatch` shares it."""
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
    s.set_defaults(func=cmd_shifted)

    s = subs.add_parser(parents=[common], name="buchstaber", help="invariant bounds and values")
    _add_universal_args(s, required=False)
    s.add_argument("--facets")
    s.add_argument("--primes", type=_int_list, default="2,3")
    s.set_defaults(func=cmd_buchstaber)

    s = subs.add_parser(parents=[common], name="zcheck", help="Z-lattice suite / quasitoric pairs")
    s.add_argument("--n", type=int, default=2)
    s.add_argument("--max-norm", type=int, default=3)
    _add_budget(s)
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
    s.add_argument("--oracle-samples", type=_count)  # default: verify.ORACLE_SAMPLES
    s.set_defaults(func=cmd_verify_all)
    return parser


def dispatch(argv):
    """Execute one command; returns (exit_code, rendered_report)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.monotonic()
        collecting = gc.isenabled()
        gc.disable()
        try:
            code, results = args.func(args)
        finally:
            if collecting:
                gc.enable()
        report = _report(args, results)
        if args.timing:
            report["timing_seconds"] = f"{time.monotonic() - started:.3f}"
        return code, emit_report(report, args.format)
    except UsageError as exc:
        return 2, f"usage error: {exc}\n"
    except (InputError, OSError) as exc:
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
