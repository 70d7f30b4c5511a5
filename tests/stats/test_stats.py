"""Tests for counters and timers."""

import time

import pytest

from repro.obs.timing import Timer
from repro.stats import PageAccessCounter


class TestPageAccessCounter:
    def test_initial_zero(self):
        c = PageAccessCounter()
        assert c.reads == c.misses == c.writes == 0

    def test_record_read_hit_miss(self):
        c = PageAccessCounter()
        c.record_read(hit=True)
        c.record_read(hit=False)
        assert c.reads == 2
        assert c.misses == 1

    def test_record_write(self):
        c = PageAccessCounter()
        c.record_write()
        assert c.writes == 1

    def test_reset(self):
        c = PageAccessCounter()
        c.record_read(hit=False)
        c.record_write()
        c.reset()
        assert c.snapshot() == {"reads": 0, "misses": 0, "writes": 0}

    def test_snapshot(self):
        c = PageAccessCounter()
        c.record_read(hit=False)
        assert c.snapshot() == {"reads": 1, "misses": 1, "writes": 0}


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first
        assert t.elapsed_ms == pytest.approx(t.elapsed * 1000)

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0
