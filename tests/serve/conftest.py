"""Serving-tier test hygiene."""

import gc
import logging

import pytest


@pytest.fixture(autouse=True)
def no_asyncio_errors(caplog):
    """asyncio reports a task exception nobody retrieved through its
    logger, not as a warning or an exception: fail the test that left
    one behind."""
    yield
    gc.collect()
    errors = [
        record.getMessage()
        for record in caplog.get_records("call") + caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]
    assert not errors, errors
