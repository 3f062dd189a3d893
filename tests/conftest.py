import os
import pathlib

import numpy as np
import pytest

from slicefock.quaternion import ImaginaryUnit, Quaternion

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so
    that a child interpreter imports the slicefock under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240517)


def random_quaternion(rng, radius=1.0):
    v = rng.uniform(-1.0, 1.0, size=4)
    return Quaternion(*(radius * v))


def random_unit(rng):
    v = rng.normal(size=3)
    return ImaginaryUnit.from_vector(v)


def random_poly_coeffs(rng, degree, scale=1.0):
    return scale * rng.uniform(-1.0, 1.0, size=(degree + 1, 4))


@pytest.fixture
def make_quaternion(rng):
    return lambda radius=1.0: random_quaternion(rng, radius)


@pytest.fixture
def make_unit(rng):
    return lambda: random_unit(rng)
