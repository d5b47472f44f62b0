"""Whole-model checkpoints: weights plus configuration in one artefact.

:mod:`repro.nn.serialization` saves bare state dicts; rebuilding a BIGCity
model from one additionally requires the exact :class:`BIGCityConfig` it was
created with (otherwise parameter shapes do not line up) and the dataset the
tokenizer was built for.  This module bundles weights and configuration into
a single ``.npz`` archive so a trained model can be reloaded with one call:

.. code-block:: python

    from repro.core.checkpoints import load_bigcity, save_bigcity

    save_bigcity(model, "xa_model.npz", dataset_name="xa_like")
    restored = load_bigcity("xa_model.npz", dataset)

The dataset itself is *not* serialised (it is either a named synthetic preset
that can be regenerated from its seed, or the user's own data); the caller
passes it when loading, and the checkpoint records its name so mismatches are
detected early.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.config import BIGCityConfig
from repro.core.model import BIGCity
from repro.data.datasets import CityDataset
from repro.nn.serialization import load_state_dict, save_state_dict

__all__ = ["save_bigcity", "load_bigcity", "read_checkpoint_metadata"]

PathLike = Union[str, os.PathLike]

#: Metadata key under which the model configuration is stored.
_CONFIG_KEY = "bigcity_config"
_DATASET_KEY = "dataset_name"
_FORMAT_KEY = "checkpoint_format"
_FORMAT_VERSION = "1"


def save_bigcity(
    model: BIGCity,
    path: PathLike,
    dataset_name: Optional[str] = None,
    extra_metadata: Optional[Dict[str, str]] = None,
) -> Path:
    """Save a trained BIGCity model (weights + configuration) to ``path``.

    Parameters
    ----------
    model:
        The model to serialise.
    path:
        Destination file (``.npz``).
    dataset_name:
        Name of the dataset the model was built for; recorded so that
        :func:`load_bigcity` can warn about mismatches.
    extra_metadata:
        Additional string-valued metadata stored alongside the weights.
    """
    metadata: Dict[str, str] = dict(extra_metadata or {})
    metadata[_CONFIG_KEY] = json.dumps(dataclasses.asdict(model.config))
    metadata[_FORMAT_KEY] = _FORMAT_VERSION
    if dataset_name is not None:
        metadata[_DATASET_KEY] = dataset_name
    return save_state_dict(model, path, metadata=metadata)


def read_checkpoint_metadata(path: PathLike) -> Dict[str, str]:
    """Return the metadata of a checkpoint without building a model.

    Useful to inspect which dataset and configuration a checkpoint belongs to
    before paying the cost of constructing the tokenizer.
    """
    import numpy as np

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    with np.load(path, allow_pickle=False) as archive:
        if "__metadata__" not in archive.files:
            return {}
        return dict(json.loads(str(archive["__metadata__"])))


def load_bigcity(
    path: PathLike,
    dataset: CityDataset,
    strict_dataset: bool = True,
) -> Tuple[BIGCity, Dict[str, str]]:
    """Rebuild a BIGCity model from a checkpoint written by :func:`save_bigcity`.

    Parameters
    ----------
    path:
        Checkpoint file.
    dataset:
        The dataset the model's tokenizer should be built against (normally
        the same one used at save time).
    strict_dataset:
        When the checkpoint records a dataset name, raise if it differs from
        ``dataset.name``; set to ``False`` to permit cross-city loading (the
        Table VI transfer scenario), where only shape-compatible weights can
        be restored.

    Returns
    -------
    (model, metadata)
        The reconstructed model in eval mode and the checkpoint metadata.
    """
    metadata = read_checkpoint_metadata(path)
    if _CONFIG_KEY not in metadata:
        raise ValueError(
            f"{path} does not look like a BIGCity checkpoint (missing {_CONFIG_KEY!r} metadata); "
            "use repro.nn.serialization.load_state_dict for bare state dicts"
        )
    recorded_dataset = metadata.get(_DATASET_KEY)
    if strict_dataset and recorded_dataset is not None and recorded_dataset != dataset.name:
        raise ValueError(
            f"checkpoint was trained on dataset {recorded_dataset!r} but {dataset.name!r} was provided; "
            "pass strict_dataset=False to load across cities"
        )
    config = _recorded_config(path, metadata[_CONFIG_KEY])
    model = BIGCity.from_dataset(dataset, config=config)
    load_state_dict(model, path, strict=strict_dataset)
    model.eval()
    return model, metadata


def _recorded_config(path: PathLike, text: str) -> BIGCityConfig:
    """The :class:`BIGCityConfig` a checkpoint records.

    Raises ``ValueError`` naming the checkpoint when the record is not a JSON
    object or holds fields the configuration no longer defines (a checkpoint
    written by a version that still had them).
    """
    fields = json.loads(text)
    if not isinstance(fields, dict):
        raise ValueError(f"{path}: {_CONFIG_KEY!r} must be a JSON object, got {type(fields).__name__}")
    unknown = sorted(set(fields) - {field.name for field in dataclasses.fields(BIGCityConfig)})
    if unknown:
        raise ValueError(f"{path}: {_CONFIG_KEY!r} has fields BIGCityConfig does not define: {unknown}")
    return BIGCityConfig(**fields)
