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
from itertools import islice

from . import experiments, lattice, sumset, theory, types
from .core import CapExceeded, IntegerSet, RationalSet

_WORKERS_ENV = "SUMSETLAB_WORKERS"


def _default_workers() -> int:
    raw = os.environ.get(_WORKERS_ENV, "1")
    try:
        return _positive_int(raw)
    except argparse.ArgumentTypeError:
        print(f"warning: {_WORKERS_ENV}={raw!r} is not a positive integer; using 1 worker",
              file=sys.stderr)
        return 1


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
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_header:
            writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    elif args.format == "text":
        lines = []
        for key, value in payload.items():
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    else:
        text = _indented(payload, "\n") + "\n"
    if args.out:
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


def _checked_int(minimum: int, rule: str, step: int = 1):
    """argparse type: an integer >= minimum and a multiple of step, else a
    usage error stating the rule."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum or value % step:
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    return parse


_even_cap = _checked_int(4, "cap must be an even integer >= 4", step=2)  # --cap, --max-cap
_positive_int = _checked_int(1, "must be a positive integer")  # --workers
_nonnegative_int = _checked_int(0, "must be a nonnegative integer")  # --seed


def _arg(flag: str, type=int, **kwargs):
    """One option spec for _command: typed, and required unless it has a
    default. A flag (an `action`) takes neither."""
    if "action" not in kwargs:
        kwargs.update(type=type, required="default" not in kwargs)
    return lambda p: p.add_argument(flag, **kwargs)


# The options more than one subcommand takes.
_SET = _arg("--set", _int_set)
_RAT_SET = _arg("--set", _rat_set)
_H = _arg("--h")
_K = _arg("--k")
_N = _arg("--n")
_SAMPLES = _arg("--samples")
_SEED = _arg("--seed", _nonnegative_int, default=0)
_CAP = _arg("--cap", _even_cap)
_COUNT = _arg("--count", default=1)
_B = _arg("--b")


def _verify_source(p: argparse.ArgumentParser) -> None:
    """theory verify reads exactly one of --set and --file."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--set", type=_int_set)
    source.add_argument("--file", help="path with one comma-separated set per line")


def _command(sub, name: str, help: str, handler, *args, csv: bool = False):
    """Add subcommand `name`: its options, --format (csv only for
    subcommands with a CSV form), --out and its handler."""
    p = sub.add_parser(name, help=help)
    for add in args:
        add(p)
    p.add_argument("--format", choices=("json", "csv", "text") if csv else ("json", "text"),
                   default="json")
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.set_defaults(func=handler)
    return p


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


# Non-blank lines `theory verify --file` verifies together, the k = 4 sets in
# one minima block. Though the reports are held whole, reading the file whole
# raised theorem peak RSS by 1-2 MiB via the allocator's high-water mark.
_VERIFY_CHUNK = 256


def _numbered_sets(path: str, fh):
    """(line number, set) for each non-blank line of fh; a line that does
    not parse raises its ValueError with the path and line number."""
    for number, line in enumerate(fh, 1):
        line = line.strip()
        if line:
            try:
                A = IntegerSet.from_text(line)
            except ValueError as exc:
                exc.args = (f"{path} line {number}: {exc}",)
                raise
            yield number, A


def _cmd_theory_verify(args) -> None:
    if args.set:
        _emit(args, theory.verify_main_theorem(args.set, max_cap=args.max_cap).to_dict())
        return
    reports = []
    with open(args.file) as fh:
        numbered = _numbered_sets(args.file, fh)
        while True:
            chunk, failure = [], None
            try:
                for item in islice(numbered, _VERIFY_CHUNK):
                    chunk.append(item)
            except (ValueError, OSError) as exc:
                # raised after the sets above the failing line are
                # verified, so an error on one of them comes first
                failure = exc
            verified = theory.verify_sets([A for _, A in chunk], args.max_cap)
            for number, _ in chunk:
                try:
                    reports.append(next(verified).to_dict())
                except (ValueError, RuntimeError) as exc:
                    exc.args = (f"{args.file} line {number}: {exc}",)
                    raise
            if failure is not None:
                raise failure
            if len(chunk) < _VERIFY_CHUNK:
                break
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
    rows = sorted((int(h), c) for h, c in summary["h1_histogram"].items())
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

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)

    sub = group("sumset", "h-fold sumsets and size profiles")
    _command(sub, "compute", "the set hA", _cmd_sumset_compute, _SET, _H)
    _command(sub, "profile", "sizes, deficits, and first differences for h=1..H",
             _cmd_sumset_profile, _SET, _arg("--horizon"), csv=True)

    sub = group("lattice", "coefficient lattice of a set")
    _command(sub, "basis", "integer kernel basis", _cmd_lattice_basis, _SET, csv=True)
    _command(sub, "minima", "successive L1 minima and minimizers", _cmd_lattice_minima,
             _SET, _COUNT, _CAP, csv=True)

    sub = group("theory", "size predictions, verification, constructions")
    _command(sub, "predict", "closed-form |hA| from (k, h1)", _cmd_theory_predict,
             _H, _K, _arg("--h1"))
    _command(sub, "verify", "brute force vs prediction below the second minimum",
             _cmd_theory_verify, _verify_source, _arg("--max-cap", _even_cap, default=4096))
    _command(sub, "construct-lemma", "set with prescribed minima (2a, 2b)", _cmd_theory_lemma,
             _arg("--a"), _B, _arg("--k", default=4))
    _command(sub, "construct-cute", "set with |hA| = 2(h^2+1) up to h = b", _cmd_theory_cute, _B)
    _command(sub, "extremes", "min, max, and realizable sizes with witnesses",
             _cmd_theory_extremes, _H, _K, csv=True)

    sub = group("types", "addition-table types and transport")
    p = _command(sub, "type", "canonical h-type partition", _cmd_types_type, _RAT_SET, _H,
                 _arg("--product", action="store_true",
                      help="partition by products instead of sums"))
    p.set_defaults(usage_error=p.error)
    _command(sub, "separation", "smallest gap between distinct h-fold sums",
             _cmd_types_separation, _RAT_SET, _H)
    _command(sub, "embed", "integer set with the same h-type as a rational set", _cmd_types_embed,
             _RAT_SET, _H, _arg("--positive", action="store_true",
                                help="translate the result by +1 so all elements are positive"))
    _command(sub, "to-product", "s -> 2**s type transport", _cmd_types_to_product, _SET)
    _command(sub, "to-sum", "integer set with the h-type of a product table", _cmd_types_to_sum,
             _SET, _H)

    workers = _arg("--workers", _positive_int, default=_default_workers())
    sub = group("experiment", "seeded sampling and exhaustive scans")
    _command(sub, "random", "|hA| histogram over random k-subsets of [n]", _cmd_exp_random,
             _N, _K, _H, _SAMPLES, _SEED, workers, csv=True)
    _command(sub, "scan", "|hA| histogram over all k-subsets of [n]", _cmd_exp_scan,
             _N, _K, _H, workers, csv=True)
    _command(sub, "minima-stats", "first-minima statistics over random subsets", _cmd_exp_minima,
             _N, _K, _SAMPLES, _SEED, _CAP, _COUNT, workers, csv=True)
    _command(sub, "type-census", "distinct h-types over all k-subsets of [n]", _cmd_exp_census,
             _N, _K, _H, csv=True)

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
    except (ValueError, OSError, RuntimeError) as exc:
        kind = f"{type(exc).__name__}: " if isinstance(exc, CapExceeded) else ""
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
