"""Every budget is a module constant that its check reads at call time and
that raises CapExceeded; no public signature takes a budget keyword, and
the README's Budgets section lists every constant with its value."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import sumsetlab
from sumsetlab import core, experiments, lattice, sumset, theory, types
from sumsetlab.cli import main
from sumsetlab.core import CapExceeded, IntegerSet

MODULES = (core, sumset, lattice, theory, types, experiments)
BUDGET_PARAMS = {"cap", "budget", "max_bits", "schedule"}
# Certified search radii that callers set per call (--cap, --max-cap),
# and the report field that records one; not budgets. find_minima and
# verify_main_theorem name theirs max_cap.
SEARCH_RADII = {
    ("MinimaReport", "cap"),
    ("lattice_shells", "cap"),
    ("successive_minima", "cap"),
    ("minima_statistics", "cap"),
}
README = Path(__file__).resolve().parents[1] / "README.md"


def _public_callables():
    for name in sumsetlab.__all__:
        yield name, getattr(sumsetlab, name)
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                yield name, obj
                for attr in vars(obj):
                    if not attr.startswith("_") and inspect.isroutine(getattr(obj, attr)):
                        yield f"{name}.{attr}", getattr(obj, attr)


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # classes that only inherit a builtin constructor
        return {}


def test_no_public_budget_keywords():
    checked = set()
    offenders = []
    for name, obj in _public_callables():
        checked.add(name)
        for param in _parameters(obj):
            if param in BUDGET_PARAMS and (name, param) not in SEARCH_RADII:
                offenders.append(f"{name}({param})")
    assert {"fold_size", "fold_sizes", "LogLinear.floor", "LogLinear.sign_lower_bound"} <= checked
    assert offenders == []


def _budget_constants():
    pattern = re.compile(r"[A-Z][A-Z0-9_]*_(CAP|BUDGET|SCHEDULE)")
    for module in MODULES:
        for name, value in vars(module).items():
            if pattern.fullmatch(name):
                yield f"{module.__name__.rsplit('.', 1)[1]}.{name}", value


def test_readme_lists_every_budget_constant():
    text = README.read_text()
    section = text.split("\n## Budgets\n", 1)[1].split("\n## ", 1)[0]
    listed = {name: ast.literal_eval(value) for name, value in re.findall(r"`(\w+\.\w+) = ([^`]+)`", section)}
    constants = dict(_budget_constants())
    assert {
        "core.DEFAULT_COMPOSITION_CAP",
        "sumset.DEFAULT_SIZE_CAP",
        "experiments.DEFAULT_SUBSET_BUDGET",
        "types.DEFAULT_POWER_BIT_BUDGET",
        "types.PRECISION_SCHEDULE",
        "types.DILATION_STEP_BUDGET",
        "lattice.DEFAULT_VECTOR_BUDGET",
    } <= constants.keys()
    assert listed == constants


def test_fold_budget_bounds_the_fold_length(monkeypatch):
    # {0, 1} at h = 5*10^7 keeps |hA| = h + 1 under the size cap, but its
    # masks hold about 1.25*10^15 bits: the check comes before the first step
    with pytest.raises(CapExceeded, match="mask bits exceeds budget"):
        sumset.h_fold_sumset(IntegerSet([0, 1]), 50_000_000)
    # diam * h(h-1)/2 bits: 3 * 45 = 135 for {0, 3} at h = 10
    monkeypatch.setattr(sumset, "DEFAULT_FOLD_BUDGET", 134)
    with pytest.raises(CapExceeded, match="exceeds budget 134"):
        sumset.fold_sizes((0, 3), 10)
    monkeypatch.setattr(sumset, "DEFAULT_FOLD_BUDGET", 135)
    assert sumset.fold_sizes((0, 3), 10) == list(range(2, 12))
    # the set path counts |jA| for j = 1..h-1 as it goes: 2 + 3 + ... + 10 = 54
    wide = (0, sumset._BITMASK_SPAN_LIMIT)
    monkeypatch.setattr(sumset, "DEFAULT_FOLD_BUDGET", 53)
    with pytest.raises(CapExceeded, match="set elements so far exceeds budget 53"):
        sumset.fold_sizes(wide, 10)
    monkeypatch.setattr(sumset, "DEFAULT_FOLD_BUDGET", 54)
    assert sumset.fold_sizes(wide, 10) == list(range(2, 12))


def test_fold_budget_leaves_the_shared_prefix_path_alone(monkeypatch):
    # fold_size's memo path is bounded by _PREFIX_MEMO_SPAN_LIMIT instead,
    # so the census and the scan size hA without the fold budget
    elements = (1, 5, 96, 100)
    expected = sumset.fold_sizes(elements, 10)[-1]
    monkeypatch.setattr(sumset, "DEFAULT_FOLD_BUDGET", 0)
    monkeypatch.setattr(sumset, "_last_prefix", ((), 0, []))
    assert sumset.fold_size(elements, 10) == expected
    with pytest.raises(CapExceeded):
        sumset.fold_sizes(elements, 10)


@pytest.mark.parametrize("elements, cap", [
    ((0, 1, 3), 64),
    ((1, 5, 96, 100), 400),
    ((4, 9, 31, 44, 60), 40),
    ((0, 1, 2, 3, 4, 5), 12),
])
def test_vector_budget_bounds_a_lattice_sweep(monkeypatch, elements, cap):
    # the count is exact: a sweep of `total` vectors passes at a budget of
    # `total` and raises at one less, before it emits the vector past it
    A = IntegerSet(elements)
    total = sum(map(len, lattice.lattice_shells(A, cap).values()))
    assert total > 1
    monkeypatch.setattr(lattice, "DEFAULT_VECTOR_BUDGET", total)
    assert sum(map(len, lattice.lattice_shells(A, cap).values())) == total
    monkeypatch.setattr(lattice, "DEFAULT_VECTOR_BUDGET", total - 1)
    with pytest.raises(CapExceeded, match=f"lattice sweep to norm {cap} passes {total - 1} vectors"):
        lattice.lattice_shells(A, cap)
    with pytest.raises(CapExceeded):
        lattice.successive_minima(A, A.k - 2, cap)


def test_vector_budget_stops_k6_minima_statistics(monkeypatch, capsys):
    # k = 6 sweeps every sample by cap doubling; at a budget of 100
    # vectors some sample's last sweep passes it
    monkeypatch.setattr(lattice, "DEFAULT_VECTOR_BUDGET", 100)
    with pytest.raises(CapExceeded, match="passes 100 vectors"):
        experiments.minima_statistics(10_000, 6, 20, seed=11, cap=1024, count=4)
    argv = ["experiment", "minima-stats", "--n", "10000", "--k", "6", "--samples", "20",
            "--seed", "11", "--cap", "1024", "--count", "4"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: CapExceeded: lattice sweep to norm ")
