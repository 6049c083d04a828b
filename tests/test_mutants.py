"""Named mutants. Each test patches in a copy of a fast path with one
recorded defect and asserts that the check meant to catch it fails, so a
test here fails when its check stops catching its mutant."""

import inspect
import itertools
import textwrap

import pytest

import record_payloads
import test_experiments
import test_lattice
import test_payloads
import test_sumset
import test_types
from sumsetlab import experiments, lattice, sumset, types
from sumsetlab.types import LogLinear


def _mutant(owner, name, old, new):
    """owner.name rebuilt from its source with the one occurrence of old
    replaced by new, in the globals of the module that defines it."""
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, old
    module = inspect.getmodule(owner)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {module.__name__}.{name}>", "exec"), namespace)
    return namespace[name]


def test_kept_interval_served_at_every_precision(monkeypatch):
    # the first-precision interval a value keeps answers every precision
    interval = LogLinear._interval

    def mutant(self, bits):
        return self._unit[1:] if self._unit is not None else interval(self, bits)

    monkeypatch.setattr(LogLinear, "_interval", mutant)
    with pytest.raises(AssertionError):
        test_types._check_kept_interval_follows_the_schedule(monkeypatch)


def test_floor_settled_from_the_low_end_alone(monkeypatch):
    # floor(m) returns the floor of one end of the first scaled interval
    def mutant(self, m=1):
        if self.is_rational:
            return self.rat * m
        lo, _, s = self._interval(types.PRECISION_SCHEDULE[0])
        return m * lo >> s

    monkeypatch.setattr(LogLinear, "floor", mutant)
    cases = list(itertools.islice(test_types._log_linear_cases(), 2000))
    with pytest.raises(AssertionError):
        test_types._check_floors_at_two_bits(monkeypatch, cases)


def test_rational_shortcut_on_num_one_alone(monkeypatch):
    # log2(1/3) has num = 1 but is irrational
    monkeypatch.setattr(LogLinear, "is_rational", property(lambda self: self.num == 1))
    with pytest.raises(AssertionError) as exc:
        test_types.test_log_linear_of_ratios_and_negative_scalings()
    assert "not z.is_rational" in str(exc.traceback[-1].statement)


def _streamed_scan_check_fails(monkeypatch):
    cases = itertools.islice(test_types._streamed_scan_cases(), 200)
    with pytest.raises(AssertionError) as exc:
        test_types._check_streamed_scan(monkeypatch, cases)
    assert "fast == oracle" in str(exc.traceback[-1].statement)


def test_straddle_settled_from_the_low_end_alone(monkeypatch):
    # a straddling step yields the floor of its low running end
    def mutant(self, step, modulus):
        lo, _, s = self._interval(types.PRECISION_SCHEDULE[0])
        for q in itertools.count():
            yield (q * step * lo >> s) % modulus

    monkeypatch.setattr(LogLinear, "floor_residues", mutant)
    _streamed_scan_check_fails(monkeypatch)


def test_running_ends_start_one_step_ahead(monkeypatch):
    # the running ends start at step*lo and step*hi instead of 0
    def mutant(self, step, modulus):
        lo, hi, s = self._interval(types.PRECISION_SCHEDULE[0])
        low, high = step * lo, step * hi
        for m in itertools.count(0, step):
            f = low >> s
            yield (f if f == high >> s else self.floor(m)) % modulus
            low += step * lo
            high += step * hi

    monkeypatch.setattr(LogLinear, "floor_residues", mutant)
    _streamed_scan_check_fails(monkeypatch)


def test_fold_size_one_mask_short(monkeypatch):
    # the prefix identity ORs in M_1 .. M_(h-1) and drops M_h
    fold_size = sumset.fold_size

    def mutant(elements, h):
        prefix, d = elements[:-1], elements[-1] - elements[0]
        if h < 2 or not prefix or h * d > sumset._PREFIX_MEMO_SPAN_LIMIT:
            return fold_size(elements, h)
        m = 1
        for mask in sumset._prefix_masks(prefix, h)[:-1]:
            m = (m << d) | mask
        return m.bit_count()

    monkeypatch.setattr(sumset, "fold_size", mutant)
    monkeypatch.setattr(test_sumset, "fold_size", mutant)
    with pytest.raises(AssertionError) as exc:
        test_sumset.test_matches_tuple_oracle()
    assert "fold_size" in str(exc.traceback[-1].statement)


@pytest.mark.parametrize("old, new, statement", [
    # emits both v and -v: the leading-zero prefix starts c at its box end
    ("lo_c = 0 if leading and x == 0 else ylo", "lo_c = ylo", "sorted_shells"),
    # the c_(k-1) box rounded up at its end emits vectors past the cap
    ("(cm1 - ylo) // nq", "-((ylo - cm1) // nq)", "sorted_shells"),
    # the same vectors, out of the order successive_minima relies on
    ("for x in xs:\n                prefix[i] = x", "for x in reversed(xs):\n                prefix[i] = x",
     "recursive_shells"),
], ids=["lo_c_is_ylo", "box_rounded_up", "reversed_c1_loop"])
def test_lattice_shells_mutant(monkeypatch, old, new, statement):
    mutant = _mutant(lattice, "lattice_shells", old, new)
    monkeypatch.setattr(lattice, "lattice_shells", mutant)
    monkeypatch.setattr(test_lattice, "lattice_shells", mutant)
    with pytest.raises(AssertionError) as exc:
        test_lattice._check_shells(itertools.islice(test_lattice._scanning_oracle_cases(), 200))
    assert statement in str(exc.traceback[-1].statement)


def test_unshuffle_takes_the_earliest_hit(monkeypatch):
    # a position hit twice holds what the first step left there
    mutant = _mutant(experiments, "_unshuffle",
                     "np.where(hits, steps[:j], -1).max(axis=2, initial=-1)",
                     "np.where(hits.any(axis=2),"
                     " j - np.where(hits, j - steps[:j], 0).max(axis=2, initial=0), -1)")
    monkeypatch.setattr(experiments, "_unshuffle", mutant)
    with pytest.raises(AssertionError) as exc:
        test_experiments.test_unshuffle_follows_repeated_targets()
    assert "fisher_yates_oracle" in str(exc.traceback[-1].statement)


def test_shard_keys_mix_the_spawn_word_first(monkeypatch):
    # the spawn word mixed before the seed words past the pool; seeds of
    # at most 4 words are unchanged
    mutant = _mutant(experiments, "_shard_keys",
                     "words[_POOL_SIZE:] + [np.arange(SHARD_COUNT, dtype=np.uint32)]",
                     "[np.arange(SHARD_COUNT, dtype=np.uint32)] + words[_POOL_SIZE:]")
    monkeypatch.setattr(experiments, "_shard_keys", mutant)
    test_experiments.test_shard_keys_match_seed_sequence(2**128 - 1)
    with pytest.raises(AssertionError) as exc:
        test_experiments.test_shard_keys_match_seed_sequence(2**200 + 7)
    assert "generate_state" in str(exc.traceback[-1].statement)


def test_type_census_walks_every_subset(monkeypatch):
    # the same census, from all C(n, k) subsets instead of those containing 1
    mutant = _mutant(experiments, "type_census",
                     "((1, *rest) for rest in itertools.combinations(range(2, n + 1), k - 1))",
                     "itertools.combinations(range(1, n + 1), k)")
    monkeypatch.setattr(experiments, "type_census", mutant)
    monkeypatch.setattr(test_experiments, "type_census", mutant)
    with pytest.raises(AssertionError) as exc:
        test_experiments.test_type_census_visits_only_the_subsets_that_contain_1(
            monkeypatch, experiments._CENSUS_BLOCK, (12, 4, 2))
    assert "binomial(n - 1, k - 1)" in str(exc.traceback[-1].statement)


def test_csv_proportion_rounded_through_a_float(monkeypatch, tmp_path):
    # a tie of the tenth decimal goes to the float's side, not to even
    mutant = _mutant(experiments.Histogram, "to_csv_rows",
                     '"%d.%010d" % divmod(round(Fraction(count * 10**10, self.total)), 10**10)',
                     'format(count / self.total, ".10f")')
    monkeypatch.setattr(experiments.Histogram, "to_csv_rows", mutant)
    csv = [command for command in record_payloads.COMMANDS if "--format csv" in command]
    with pytest.raises(AssertionError) as exc:
        test_payloads._check_ledger(tmp_path, csv)
    assert "--samples 10240" in str(exc.value)
