"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro.data.relation import (
    Attribute,
    AttributeKind,
    Direction,
    Relation,
    Schema,
    Tuple,
)
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset, figure3_dataset


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Put the ``repro`` logger's handlers, level and ``propagate`` back
    after every test. An in-process CLI run configures the logger for
    that test's captured stderr and stops propagation; a later test
    would otherwise log to a closed stream."""
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    level = logger.level
    propagate = logger.propagate
    yield
    logger.handlers = handlers
    logger.setLevel(level)
    logger.propagate = propagate


@pytest.fixture
def toy():
    """The paper's Figure 1 toy dataset (fresh copy per test)."""
    return figure1_dataset()


@pytest.fixture
def toy_fig3():
    """The paper's Figure 3 anti-correlated toy dataset."""
    return figure3_dataset()


@pytest.fixture
def small_independent():
    """A small deterministic IND dataset (n=80, |AK|=3, |AC|=1)."""
    return generate_synthetic(
        80, 3, 1, Distribution.INDEPENDENT, seed=42
    )


@pytest.fixture
def small_anti():
    """A small deterministic ANT dataset (n=60, |AK|=2, |AC|=1)."""
    return generate_synthetic(
        60, 2, 1, Distribution.ANTI_CORRELATED, seed=7
    )


@pytest.fixture
def multi_crowd():
    """A dataset with two crowd attributes (n=50, |AK|=2, |AC|=2)."""
    return generate_synthetic(
        50, 2, 2, Distribution.INDEPENDENT, seed=11
    )


def make_relation(known_rows, latent_rows=None, directions=None):
    """Helper to build small relations inline in tests.

    ``known_rows`` is a list of known-value tuples; ``latent_rows`` the
    matching latent tuples (one crowd attribute per element).
    """
    known_rows = [tuple(row) for row in known_rows]
    num_known = len(known_rows[0])
    num_crowd = len(latent_rows[0]) if latent_rows else 0
    directions = directions or [Direction.MIN] * (num_known + num_crowd)
    attrs = [
        Attribute(f"A{i + 1}", AttributeKind.KNOWN, directions[i])
        for i in range(num_known)
    ]
    attrs += [
        Attribute(
            f"C{j + 1}",
            AttributeKind.CROWD,
            directions[num_known + j],
        )
        for j in range(num_crowd)
    ]
    rows = []
    for i, known in enumerate(known_rows):
        latent = tuple(latent_rows[i]) if latent_rows else ()
        rows.append(Tuple(known=known, latent=latent))
    return Relation(Schema(attrs), rows)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(2024)


# -- determinism sanitizer plugin (--repro-sanitize) -------------------------
#
# Opt-in runtime counterpart of the static determinism rules: each
# test's call phase runs under repro.analysis.sanitize, and any
# wall-clock read, global-RNG use or os.urandom call attributed to
# project or test code fails that test with the recorded stacks.
# Frames inside the obs layer (which owns timestamps by design), the
# sanitizer itself, and the test machinery (pytest/pluggy/hypothesis
# steer the global RNG for their own bookkeeping) are exempt.

SANITIZE_ALLOW = (
    "repro/obs/",
    "_pytest/",
    "pluggy/",
    "hypothesis/",
    "importlib/",
    # stdlib logging stamps every LogRecord with time.time(); log
    # timestamps are presentation metadata, never result data
    "logging/",
)


def pytest_addoption(parser):
    parser.addoption(
        "--repro-sanitize",
        action="store_true",
        default=False,
        help=(
            "run every test under the runtime determinism sanitizer "
            "and fail on wall-clock/global-RNG/os.urandom use"
        ),
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not item.config.getoption("--repro-sanitize"):
        yield
        return
    from repro.analysis.sanitize import DeterminismSanitizer

    with DeterminismSanitizer(allow_modules=SANITIZE_ALLOW) as sanitizer:
        yield
    if sanitizer.violations:
        details = "\n\n".join(
            violation.render_stack()
            for violation in sanitizer.violations
        )
        pytest.fail(
            f"determinism sanitizer caught "
            f"{len(sanitizer.violations)} violation(s):\n{details}",
            pytrace=False,
        )
