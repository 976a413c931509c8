"""The base of the package's frozen records of arrays."""

from dataclasses import fields

import numpy as np


class Record:
    """A frozen dataclass whose arrays no one can write to.

    Every array the record holds once its constructor has run is made
    read-only in place, not copied; a record that converts or checks its
    input does so first and then calls this ``__post_init__``. Pickle,
    ``copy.copy`` and ``copy.deepcopy`` rebuild a record through its
    constructor from its field values, so a rebuilt record's arrays are
    read-only too and its checks run again.
    """

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))
