from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from beds import BUILTINS, context


@pytest.fixture(scope="session")
def algebras():
    return {label: context(label).algebra for label in BUILTINS}


@pytest.fixture(scope="session")
def contexts():
    return {label: context(label) for label in BUILTINS}


@pytest.fixture(scope="session")
def cs3_fun():
    return context("C(S3)")


@pytest.fixture(scope="session")
def cs3_grp():
    return context("C[S3]")


@pytest.fixture(scope="session")
def ca4_fun():
    return context("C(A4)")


@pytest.fixture(scope="session")
def ca4_grp():
    return context("C[A4]")


@pytest.fixture(scope="session")
def cs4_fun():
    return context("C(S4)")


@pytest.fixture(scope="session")
def cs4_grp():
    return context("C[S4]")


@pytest.fixture(scope="session")
def cd6_fun():
    return context("C(D6)")
