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
