"""Fixtures shared by the test modules: the relation reports, built once per session."""

import pytest

from braidcert.homotopy import relation_certificates


@pytest.fixture(scope="session")
def certificates_n2():
    return relation_certificates(2)


@pytest.fixture(scope="session")
def certificates_n3():
    return relation_certificates(3)
