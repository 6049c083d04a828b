"""Named mutants. Each test patches in a copy of a fast path with one
recorded defect and asserts that the check meant to catch it fails, so a
test here fails when its check stops catching its mutant."""

import itertools

import pytest

import test_types
from sumsetlab import types
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
