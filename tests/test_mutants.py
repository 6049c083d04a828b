"""Named mutants. Each test patches in a copy of a fast path with one
recorded defect and asserts that the check meant to catch it fails, so a
test here fails when its check stops catching its mutant."""

import itertools

import pytest

import test_sumset
import test_types
from sumsetlab import sumset, types
from sumsetlab.types import LogLinear


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
