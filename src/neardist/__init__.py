"""Near-equal distances in separated planar point sets.

Count point pairs whose distance falls in a family of narrow intervals, check
the near-sum condition under which such counts stay near n^2/4, generate the
extremal column configurations that meet the bound, search for good
configurations by simulated annealing, and extract complete-tripartite
witnesses from dense qualifying-pair graphs.

The public names are those of each module's __all__, resolved on first use:
`import neardist` imports none of the library modules, and the first lookup
of a public name, of __all__ or of dir() imports all five. A submodule name
such as `neardist.counting` or `neardist.cli` imports only that module and
what it imports.
"""

__version__ = "0.1.0"

# The modules whose __all__ make up the package's, in __all__ order.
_MODULES = ("geometry", "counting", "constructions", "search", "graphs")
_SUBMODULES = (*_MODULES, "cli", "fileio")


def _submodule(name: str):
    # The import statement's hook, unlike importlib.import_module, is what
    # `python -X importtime` times.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def _load() -> None:
    """Import the five modules and bind their public names and __all__ here."""
    names = ["__version__"]
    for m in _MODULES:
        module = _submodule(m)
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    # Absent dunders such as __wrapped__, which inspect, pickle and hasattr
    # checks probe, fail at once, with no import.
    if name.startswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name in _SUBMODULES:
        return _submodule(name)
    _load()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
