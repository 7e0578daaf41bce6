"""Codecs between live simulation objects and checkpoint (arrays, meta).

Two codecs, one per resumable component (step records carry their own,
:meth:`~repro.simulation.StepRecord.to_json`):

* **Dataset** — the SoA arrays (centers, widths, named attributes),
  the bounds and the version counter.  The process-local ``uid`` is
  *not* serialized: a restored dataset gets a fresh uid and every
  uid-pinned consumer (the maintained pair set) re-pins against it.
* **Motion model** — a reflective snapshot of the instance dict.  The
  interesting case is the seeded :class:`numpy.random.Generator`: its
  ``bit_generator.state`` is a nested dict of Python ints and floats,
  which JSON round-trips exactly (arbitrary-precision ints, repr'd
  doubles), so a restored model draws the *same* random stream the
  uninterrupted run would have drawn.

Restores validate eagerly and raise :class:`ValueError` on anything
that does not look like what the matching snapshot wrote — the loader
upgrades those into corrupt-checkpoint skips.
"""

from __future__ import annotations

import importlib
from typing import Any

import numpy as np

from repro.datasets.dataset import SpatialDataset
from repro.datasets.motion import MotionModel

__all__ = [
    "restore_dataset",
    "restore_motion",
    "snapshot_dataset",
    "snapshot_motion",
]


# ----------------------------------------------------------------------
# Dataset
# ----------------------------------------------------------------------
def snapshot_dataset(
    dataset: SpatialDataset,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Capture a dataset as checkpoint (arrays, meta)."""
    lo, hi = dataset.bounds
    arrays: dict[str, np.ndarray] = {
        "centers": dataset.centers,
        "widths": dataset.widths,
        "bounds_lo": lo,
        "bounds_hi": hi,
    }
    for name, value in dataset.attributes.items():
        arrays[f"attr/{name}"] = np.asarray(value)
    return arrays, {
        "version": dataset.version,
        "attributes": sorted(dataset.attributes),
    }


def restore_dataset(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> SpatialDataset:
    """Rebuild a dataset; fresh uid, checkpointed version."""
    attributes = {
        str(name): arrays[f"attr/{name}"] for name in meta["attributes"]
    }
    dataset = SpatialDataset(
        arrays["centers"],
        arrays["widths"],
        bounds=(arrays["bounds_lo"], arrays["bounds_hi"]),
        attributes=attributes,
    )
    dataset.version = int(meta["version"])
    return dataset


# ----------------------------------------------------------------------
# Motion models
# ----------------------------------------------------------------------
def _encode_rng(generator: np.random.Generator) -> dict[str, Any]:
    return {"kind": "rng", "state": generator.bit_generator.state}


def _decode_rng(entry: dict[str, Any]) -> np.random.Generator:
    state = entry["state"]
    name = state["bit_generator"]
    bit_generator_cls = getattr(np.random, name, None)
    if bit_generator_cls is None or not (
        isinstance(bit_generator_cls, type)
        and issubclass(bit_generator_cls, np.random.BitGenerator)
    ):
        raise ValueError(f"unknown bit generator {name!r} in checkpoint")
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def snapshot_motion(
    motion: MotionModel,
) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Reflectively capture a motion model's instance state.

    Supports the attribute shapes the shipped models use — ndarrays,
    tuples of ndarrays (bounds), seeded Generators and plain scalars —
    and refuses anything else loudly rather than pickling it.
    """
    arrays: dict[str, np.ndarray] = {}
    attrs: dict[str, Any] = {}
    for name, value in vars(motion).items():
        if isinstance(value, np.ndarray):
            arrays[f"attr/{name}"] = value
            attrs[name] = {"kind": "array"}
        elif isinstance(value, np.random.Generator):
            attrs[name] = _encode_rng(value)
        elif isinstance(value, tuple) and all(
            isinstance(item, np.ndarray) for item in value
        ):
            for index, item in enumerate(value):
                arrays[f"attr/{name}/{index}"] = item
            attrs[name] = {"kind": "array_tuple", "size": len(value)}
        elif isinstance(value, (bool, int, float, str)) or value is None:
            attrs[name] = {"kind": "scalar", "value": value}
        elif isinstance(value, np.integer):
            attrs[name] = {"kind": "scalar", "value": int(value)}
        elif isinstance(value, np.floating):
            attrs[name] = {"kind": "scalar", "value": float(value)}
        else:
            raise TypeError(
                f"motion attribute {name!r} of {type(motion).__name__} is not "
                f"checkpointable (type {type(value).__name__})"
            )
    meta = {
        "module": type(motion).__module__,
        "qualname": type(motion).__qualname__,
        "attrs": attrs,
    }
    return arrays, meta


def restore_motion(
    arrays: dict[str, np.ndarray], meta: dict[str, Any]
) -> MotionModel:
    """Rebuild a motion model captured by :func:`snapshot_motion`."""
    module = importlib.import_module(meta["module"])
    cls = module
    for part in str(meta["qualname"]).split("."):
        cls = getattr(cls, part)
    if not (isinstance(cls, type) and issubclass(cls, MotionModel)):
        raise ValueError(
            f"checkpointed motion class {meta['qualname']!r} is not a "
            "MotionModel"
        )
    motion = cls.__new__(cls)
    for name, entry in meta["attrs"].items():
        kind = entry["kind"]
        if kind == "array":
            value: Any = arrays[f"attr/{name}"]
        elif kind == "array_tuple":
            value = tuple(
                arrays[f"attr/{name}/{index}"]
                for index in range(int(entry["size"]))
            )
        elif kind == "rng":
            value = _decode_rng(entry)
        elif kind == "scalar":
            value = entry["value"]
        else:
            raise ValueError(f"unknown motion attribute kind {kind!r}")
        setattr(motion, name, value)
    return motion

