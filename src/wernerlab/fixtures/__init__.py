"""Bundled reference density matrices used as regression fixtures."""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from ..errors import UnknownLabelError
from ..states import density_matrix_from_json

FIXTURE_NAMES = ("rho1", "rho2")


def load(name: str) -> np.ndarray:
    """Load a bundled density matrix by name ("rho1" or "rho2")."""
    if name not in FIXTURE_NAMES:
        raise UnknownLabelError(
            f"unknown fixture {name!r}; expected one of {', '.join(FIXTURE_NAMES)}"
        )
    text = resources.files(__package__).joinpath(f"{name}.json").read_text()
    return density_matrix_from_json(json.loads(text))

