"""Shared fixtures for the test suite.

Expensive objects (calibration-backed error models, chiplet designs, a small
architecture study) are built once per session so individual tests stay
fast while still exercising the real pipeline.

Hypothesis profiles
-------------------
Three profiles are registered for the property-based suites:

* ``dev`` (default) — 25 examples per property, keeps the tier-1 run fast;
* ``ci`` — 200 examples, used by the CI workflow
  (``HYPOTHESIS_PROFILE=ci``);
* ``thorough`` — 1000 examples for local deep dives.

Golden regeneration
-------------------
``pytest --regenerate-goldens`` rewrites the seeded JSON snapshots under
``tests/golden/`` instead of comparing against them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings as hypothesis_settings

    hypothesis_settings.register_profile(
        "dev",
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile(
        "ci",
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.register_profile(
        "thorough",
        max_examples=1000,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regenerate-goldens",
        action="store_true",
        default=False,
        help="rewrite the seeded JSON goldens under tests/golden/ "
        "instead of asserting against them",
    )

from repro.analysis.study import ArchitectureStudy, StudyConfig
from repro.core.chiplet import ChipletDesign
from repro.core.fabrication import FabricationModel
from repro.core.frequencies import FrequencySpec, HeavyHexThreeFrequencyPlan
from repro.core.mcm import MCMDesign
from repro.device.calibration import washington_cx_model
from repro.device.noise import LinkErrorModel
from repro.topology.coupling import CouplingMap
from repro.topology.heavy_hex import heavy_hex_by_qubit_count


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Deterministic random generator shared by tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def spec() -> FrequencySpec:
    """The paper's default frequency targets (5.0 / 5.06 / 5.12 GHz)."""
    return FrequencySpec()


@pytest.fixture(scope="session")
def lattice_27():
    """A 27-qubit (Falcon-sized) heavy-hex lattice."""
    return heavy_hex_by_qubit_count(27)


@pytest.fixture(scope="session")
def allocation_27(lattice_27, spec):
    """Frequency allocation for the 27-qubit lattice."""
    return HeavyHexThreeFrequencyPlan().allocate(lattice_27, spec=spec)


@pytest.fixture(scope="session")
def coupling_27(lattice_27) -> CouplingMap:
    """Coupling map of the 27-qubit lattice."""
    return CouplingMap.from_lattice(lattice_27)


@pytest.fixture(scope="session")
def cx_model():
    """Synthetic Washington-backed empirical CX error model."""
    return washington_cx_model(seed=11)


@pytest.fixture(scope="session")
def link_model() -> LinkErrorModel:
    """State-of-the-art flip-chip link error model."""
    return LinkErrorModel.from_mean_median()


@pytest.fixture(scope="session")
def fabrication() -> FabricationModel:
    """Laser-tuned fabrication precision (sigma_f = 0.014 GHz)."""
    return FabricationModel(sigma_ghz=0.014)


@pytest.fixture(scope="session")
def chiplet_20() -> ChipletDesign:
    """The paper's flagship 20-qubit chiplet."""
    return ChipletDesign.build(20)


@pytest.fixture(scope="session")
def chiplet_10() -> ChipletDesign:
    """A 10-qubit chiplet."""
    return ChipletDesign.build(10)


@pytest.fixture(scope="session")
def mcm_2x2_20(chiplet_20) -> MCMDesign:
    """An 80-qubit 2x2 MCM of 20-qubit chiplets."""
    return MCMDesign.build(chiplet_20, 2, 2)


@pytest.fixture(scope="session")
def small_study(cx_model) -> ArchitectureStudy:
    """A reduced-batch architecture study for integration tests."""
    config = StudyConfig(
        chiplet_batch_size=400,
        monolithic_batch_size=400,
        chiplet_sizes=(10, 20, 40),
        seed=99,
    )
    return ArchitectureStudy(config, cx_model=cx_model)
