"""Command-line interface. Every library operation is exposed as a
subcommand emitting JSON (default), CSV, or a plain text table.

Exit codes: 0 success, 1 computation error (budget, truncation,
precision), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import experiments, lattice, sumset, theory, types
from .core import CapExceeded, IntegerSet, RationalSet

_WORKERS_ENV = "SUMSETLAB_WORKERS"


def _default_workers() -> int:
    raw = os.environ.get(_WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"warning: {_WORKERS_ENV}={raw!r} is not a positive integer; using 1 worker",
              file=sys.stderr)
        return 1
    return workers


_encode_str = json.encoder.encode_basestring_ascii
# The C encoder, for every other scalar; unsupported values raise TypeError.
_encode_scalar = json.JSONEncoder().encode


def _indented(value, indent: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, with
    `indent` the newline and spaces that precede value's closing bracket.

    On Python 3.11 json.dumps with an indent always runs the stdlib's
    generator-based encoder; this builds the same text with one recursive
    join. Containers and dict keys follow the stdlib's rules: dicts (by
    isinstance) by sorted items, int/float/bool/None keys converted, any
    other key a TypeError; lists and tuples in order. ints and bools are
    written inline, strings by the stdlib's string encoder, and every
    other scalar by the C encoder."""
    if type(value) is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        parts = [int.__repr__(v) if type(v) is int else _indented(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        parts = []
        for key, v in sorted(value.items()):
            if isinstance(key, str):
                pass
            elif isinstance(key, float) or key is True or key is False or key is None:
                key = _encode_scalar(key)
            elif isinstance(key, int):
                key = int.__repr__(key)
            else:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}")
            parts.append(_encode_str(key) + ": " + _indented(v, inner))
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    return _encode_scalar(value)


def _emit(args, payload: dict, csv_rows=None, csv_header=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    elif fmt == "text":
        lines = []
        for key, value in payload.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        text = _indented(payload, "\n") + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _set_type(cls):
    """argparse type for --set: a malformed set is a usage error (exit 2)."""
    def parse(text: str):
        try:
            return cls.from_text(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"invalid set {text!r}: {exc}") from None
    return parse


_int_set = _set_type(IntegerSet)
_rat_set = _set_type(RationalSet)


def _even_cap(text: str) -> int:
    """argparse type for --cap and --max-cap: an even integer >= 4, else a
    usage error."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 4 or cap % 2:
        raise argparse.ArgumentTypeError(f"cap must be an even integer >= 4, got {text!r}")
    return cap


def _int_at_least(minimum: int, kind: str):
    """argparse type: an integer >= minimum, else a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")  # --workers
_nonnegative_int = _int_at_least(0, "nonnegative")  # --seed


def _add_common(p: argparse.ArgumentParser, has_csv: bool = False) -> None:
    """--format (csv only for subcommands with a CSV form) and --out."""
    formats = ("json", "csv", "text") if has_csv else ("json", "text")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")


def _cmd_sumset_compute(args) -> None:
    result = sumset.h_fold_sumset(args.set, args.h)
    _emit(args, {"set": list(args.set.elements), "h": args.h, "sumset": list(result.elements), "size": result.k})


def _cmd_sumset_profile(args) -> None:
    profile = sumset.sumset_profile(args.set, args.horizon)
    rows = [
        (h, profile.sizes[h - 1], profile.deficits[h - 1],
         profile.deficit_first_differences[h - 2] if h >= 2 else "")
        for h in range(1, args.horizon + 1)
    ]
    _emit(args, profile.to_dict(), rows, ("h", "size", "deficit", "deficit_first_difference"))


def _cmd_lattice_basis(args) -> None:
    basis = lattice.coefficient_lattice_basis(args.set)
    _emit(args, basis.to_dict(), [tuple(r) for r in basis.rows])


def _cmd_lattice_minima(args) -> None:
    report = lattice.successive_minima(args.set, args.count, args.cap)
    _emit(args, report.to_dict(), [(n,) + v for n, v in zip(report.minima, report.minimizers)])


def _cmd_theory_predict(args) -> None:
    size = theory.predicted_size(args.h, args.k, args.h1)
    _emit(args, {"h": args.h, "k": args.k, "h1": args.h1, "predicted_size": size})


def _verify_one(A: IntegerSet, max_cap: int) -> dict:
    return theory.verify_main_theorem(A, max_cap=max_cap).to_dict()


def _cmd_theory_verify(args) -> None:
    if args.set:
        _emit(args, _verify_one(args.set, args.max_cap))
        return
    reports = []
    with open(args.file) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    reports.append(_verify_one(IntegerSet.from_text(line), args.max_cap))
                except (ValueError, RuntimeError) as exc:
                    exc.args = (f"{args.file} line {number}: {exc}",)
                    raise
    _emit(args, {"reports": reports, "all_match": all(r["all_match"] for r in reports)})


def _cmd_theory_lemma(args) -> None:
    A = theory.construct_lemma_set(args.a, args.b, args.k)
    _emit(args, {"a": args.a, "b": args.b, "k": args.k, "set": list(A.elements)})


def _cmd_theory_cute(args) -> None:
    A = theory.construct_cute_set(args.b)
    _emit(args, {"b": args.b, "set": list(A.elements)})


def _cmd_theory_extremes(args) -> None:
    m, M, realizable = theory.extreme_and_realizable(args.h, args.k)
    _emit(
        args,
        {
            "h": args.h,
            "k": args.k,
            "min_size": m,
            "max_size": M,
            "realizable": [
                {"size": size, "witness": list(w.elements)} for size, w in realizable
            ],
        },
        [(size, *w.elements) for size, w in realizable],
    )


def _cmd_types_type(args) -> None:
    h = args.h
    if args.product:
        try:
            P = IntegerSet(args.set)
        except ValueError as exc:
            args.usage_error(f"argument --set: --product needs an integer set: {exc}")
        part = types.product_type(P, h)
    else:
        part = types.h_type(args.set, h)
    payload = part.to_dict()
    payload["class_count"] = part.class_count
    _emit(args, payload)


def _cmd_types_separation(args) -> None:
    sep = types.separation(args.set, args.h)
    _emit(args, {"set": [str(x) for x in args.set.elements], "h": args.h, "separation": str(sep)})


def _cmd_types_embed(args) -> None:
    A, trace = types.embed_real_to_integers(args.set, args.h)
    if args.positive:
        A = IntegerSet(a + 1 for a in A.elements)
    payload = {"set": [str(x) for x in args.set.elements], "h": args.h,
               "result": list(A.elements), "trace": trace.to_dict()}
    _emit(args, payload)


def _cmd_types_to_product(args) -> None:
    P = types.sum_to_product(args.set)
    _emit(args, {"set": list(args.set.elements), "result": list(P.elements)})


def _cmd_types_to_sum(args) -> None:
    A = types.product_to_sum(args.set, args.h)
    _emit(args, {"set": list(args.set.elements), "h": args.h, "result": list(A.elements)})


def _cmd_exp_random(args) -> None:
    config = experiments.ExperimentConfig(
        n=args.n, k=args.k, h=args.h, samples=args.samples, seed=args.seed, workers=args.workers
    )
    hist, summary = experiments.random_subset_experiment(config)
    summary["histogram"] = hist.to_dict()
    _emit(args, summary, hist.to_csv_rows(), ("size", "count", "proportion"))


def _cmd_exp_scan(args) -> None:
    hist = experiments.exhaustive_scan(args.n, args.k, args.h, workers=args.workers)
    payload = {"n": args.n, "k": args.k, "h": args.h, "histogram": hist.to_dict()}
    _emit(args, payload, hist.to_csv_rows(), ("size", "count", "proportion"))


def _cmd_exp_minima(args) -> None:
    summary = experiments.minima_statistics(
        args.n, args.k, args.samples, args.seed, args.cap, count=args.count, workers=args.workers
    )
    rows = [(key, value) for key, value in sorted(
        ((int(k), v) for k, v in summary["h1_histogram"].items())
    )]
    _emit(args, summary, rows, ("h1", "count"))


def _cmd_exp_census(args) -> None:
    count, reps = experiments.type_census(args.n, args.k, args.h)
    payload = {
        "n": args.n,
        "k": args.k,
        "h": args.h,
        "type_count": count,
        "representatives": [list(r.elements) for r in reps],
    }
    _emit(args, payload, [tuple(r.elements) for r in reps])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset sizes, coefficient-lattice L1 minima, and type transport.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    g = top.add_parser("sumset", help="h-fold sumsets and size profiles")
    sub = g.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("compute", help="the set hA")
    p.add_argument("--set", type=_int_set, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_sumset_compute)
    p = sub.add_parser("profile", help="sizes, deficits, and first differences for h=1..H")
    p.add_argument("--set", type=_int_set, required=True)
    p.add_argument("--horizon", type=int, required=True)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_sumset_profile)

    g = top.add_parser("lattice", help="coefficient lattice of a set")
    sub = g.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("basis", help="integer kernel basis")
    p.add_argument("--set", type=_int_set, required=True)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_lattice_basis)
    p = sub.add_parser("minima", help="successive L1 minima and minimizers")
    p.add_argument("--set", type=_int_set, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--cap", type=_even_cap, required=True)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_lattice_minima)

    g = top.add_parser("theory", help="size predictions, verification, constructions")
    sub = g.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("predict", help="closed-form |hA| from (k, h1)")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h1", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_theory_predict)
    p = sub.add_parser("verify", help="brute force vs prediction below the second minimum")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--set", type=_int_set)
    source.add_argument("--file", help="path with one comma-separated set per line")
    p.add_argument("--max-cap", type=_even_cap, default=4096)
    _add_common(p)
    p.set_defaults(func=_cmd_theory_verify)
    p = sub.add_parser("construct-lemma", help="set with prescribed minima (2a, 2b)")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=_cmd_theory_lemma)
    p = sub.add_parser("construct-cute", help="set with |hA| = 2(h^2+1) up to h = b")
    p.add_argument("--b", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_theory_cute)
    p = sub.add_parser("extremes", help="min, max, and realizable sizes with witnesses")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_theory_extremes)

    g = top.add_parser("types", help="addition-table types and transport")
    sub = g.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("type", help="canonical h-type partition")
    p.add_argument("--set", type=_rat_set, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--product", action="store_true", help="partition by products instead of sums")
    _add_common(p)
    p.set_defaults(func=_cmd_types_type, usage_error=p.error)
    p = sub.add_parser("separation", help="smallest gap between distinct h-fold sums")
    p.add_argument("--set", type=_rat_set, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_types_separation)
    p = sub.add_parser("embed", help="integer set with the same h-type as a rational set")
    p.add_argument("--set", type=_rat_set, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--positive", action="store_true",
                   help="translate the result by +1 so all elements are positive")
    _add_common(p)
    p.set_defaults(func=_cmd_types_embed)
    p = sub.add_parser("to-product", help="s -> 2**s type transport")
    p.add_argument("--set", type=_int_set, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_types_to_product)
    p = sub.add_parser("to-sum", help="integer set with the h-type of a product table")
    p.add_argument("--set", type=_int_set, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_types_to_sum)

    workers = _default_workers()
    g = top.add_parser("experiment", help="seeded sampling and exhaustive scans")
    sub = g.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("random", help="|hA| histogram over random k-subsets of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--workers", type=_positive_int, default=workers)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_exp_random)
    p = sub.add_parser("scan", help="|hA| histogram over all k-subsets of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--workers", type=_positive_int, default=workers)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_exp_scan)
    p = sub.add_parser("minima-stats", help="first-minima statistics over random subsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--cap", type=_even_cap, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--workers", type=_positive_int, default=workers)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_exp_minima)
    p = sub.add_parser("type-census", help="distinct h-types over all k-subsets of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    _add_common(p, has_csv=True)
    p.set_defaults(func=_cmd_exp_census)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use; SUMSETLAB_WORKERS is
    therefore read once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, CapExceeded, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
