"""Every frozen record survives pickle and copy with its guarantees: the
arrays come back equal and read-only, and the constructor's checks run
again on the rebuilt record."""

import copy
import pickle
from dataclasses import fields, is_dataclass
from types import MappingProxyType

import numpy as np
import pytest

from cloudmorph import (
    FtarTable,
    RegistrationParams,
    ScoreTable,
    SimilarityTransform,
    build_gram,
    build_problem,
    register,
)
from conftest import make_cloud


def _records():
    """name -> (record, number of arrays it reaches)."""
    source, target = make_cloud(20, seed=70), make_cloud(30, seed=71)
    params = RegistrationParams(max_iters=3, use_sigma_correction=True)
    result = register(source, target, params)
    return {
        "PointCloud": (source, 2),
        "SimilarityTransform": (result.source_record, 2),
        "GramMatrix": (build_gram(source.vertices, params.beta), 1),
        # the source's 2, the Gram's 1 and the three target tables
        "RegistrationProblem": (build_problem(source, target, params), 6),
        # 8 of its own and the transform's 2
        "RegistrationState": (result.state, 10),
        # the state's 10 and 2 each in two clouds and two records
        "RegistrationResult": (result, 18),
        "ScoreTable": (ScoreTable.from_rows([("m1", "t", "frs1", 1, 0.5, 0.25),
                                             ("m2", "t", "frs2", 2, 0.75, 1.0)]), 5),
        "FtarTable": (FtarTable({(1, "frs1"): 0.25}), 0),
    }


RECORDS = _records()
REBUILDS = {
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


def _arrays(record, path):
    """(path, array) for every array reachable through dataclass fields and
    tuples, in field order."""
    if isinstance(record, np.ndarray):
        yield path, record
    elif isinstance(record, tuple):
        for k, item in enumerate(record):
            yield from _arrays(item, f"{path}[{k}]")
    elif is_dataclass(record):
        for f in fields(record):
            yield from _arrays(getattr(record, f.name), f"{path}.{f.name}")


@pytest.mark.parametrize("rebuild", list(REBUILDS.values()), ids=list(REBUILDS))
@pytest.mark.parametrize("name", list(RECORDS))
def test_rebuilt_record_keeps_equal_read_only_arrays(name, rebuild):
    record, count = RECORDS[name]
    rebuilt = rebuild(record)
    assert type(rebuilt) is type(record)
    original = dict(_arrays(record, name))
    arrays = dict(_arrays(rebuilt, name))
    assert len(original) == count
    assert arrays.keys() == original.keys()
    for path, array in arrays.items():
        assert array.dtype == original[path].dtype, path
        assert array.shape == original[path].shape, path
        assert array.tobytes() == original[path].tobytes(), path
        assert not array.flags.writeable, path
    if isinstance(record, FtarTable):
        assert isinstance(rebuilt.rates, MappingProxyType)
        assert rebuilt == record


@pytest.mark.parametrize("rebuild", list(REBUILDS.values()), ids=list(REBUILDS))
def test_rebuild_reruns_the_constructor_checks(rebuild):
    transform = SimilarityTransform.identity()
    object.__setattr__(transform, "scale", -1.0)
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        rebuild(transform)
