"""Exact verification kernel and numerical transport engine for the
Dunkl-operator structure of the rational Calogero model."""

__version__ = "0.1.0"


class _Numpy:
    """The ``np`` of a module that uses numpy only inside its functions.

    The first attribute lookup imports numpy and rebinds the module's global
    ``np`` to it, so every later ``np.`` lookup is numpy itself, and a run
    that never reaches numerical code never loads numpy."""

    __slots__ = ("_namespace",)

    def __init__(self, namespace: dict):
        self._namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self._namespace["np"] = numpy
        return getattr(numpy, name)


class _Record:
    """Base of a validated record whose ``__init__`` is its one construction
    path.

    A subclass names its fields in ``_fields`` and writes them, with anything
    it derives, straight into the instance dict from its own ``__init__``,
    after validating them.  Assignment and deletion of attributes are
    refused; equality (same class only), the hash and the repr read the
    fields in order, as a frozen dataclass's do."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")
