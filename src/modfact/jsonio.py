"""Loading and saving the JSON file formats used by the command line.

Object files use the bare encodings defined next to each class
(factorizations as ``{"n", "ranks", "maps"}``, chains as ``{"n",
"modules", "maps"}`` and so on).  Morphism files embed their endpoints
under ``"source"`` / ``"target"`` keys.  A ring is normally supplied out
of band (the --ring flag), but any file may carry a ``"ring"`` key as a
fallback.
"""

import json

from .rings import ring_from_json
from .factorizations import Factorization, Morphism
from .matrixring import GammaModule
from .chains import ChainModule


class InputError(ValueError):
    """Unreadable, unparsable, or inconsistent input files."""


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("bad JSON in %s: %s" % (path, exc))
    except RecursionError:
        raise InputError("JSON in %s is nested too deeply" % path)


def write_json(data, path=None):
    # path None or "-" means stdout
    text = json.dumps(data, indent=2, sort_keys=True)
    if path is None or path == "-":
        print(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (path, exc))


def load_ring(path):
    data = read_json(path)
    try:
        return ring_from_json(data)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        raise InputError("bad ring in %s: %s" % (path, exc))


def _resolve_ring(data, ring, path):
    if ring is not None:
        return ring
    if isinstance(data, dict) and "ring" in data:
        try:
            return ring_from_json(data["ring"])
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise InputError("bad embedded ring in %s: %s" % (path, exc))
    raise InputError("%s: no ring supplied and none embedded" % path)


def _morphism_from_json(ring, data):
    source = Factorization.from_json(ring, data["source"])
    target = Factorization.from_json(ring, data["target"])
    return Morphism.from_json(source, target, data)


# kind -> (from_json(ring, data), the noun its errors name)
_BUILDERS = {
    "factorization": (Factorization.from_json, "factorization"),
    "morphism": (_morphism_from_json, "morphism"),
    "chain": (ChainModule.from_json, "chain"),
    "gamma": (GammaModule.from_json, "gamma data"),
}


def _build(kind, data, path, ring):
    """The object of the given kind from the data parsed out of path."""
    from_json, noun = _BUILDERS[kind]
    ring = _resolve_ring(data, ring, path)
    try:
        return from_json(ring, data)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        if kind == "morphism" and isinstance(exc, KeyError):
            raise InputError("%s: morphism file lacks %s (source and target "
                             "must be embedded)" % (path, exc))
        raise InputError("bad %s in %s: %s" % (noun, path, exc))


def load_factorization(path, ring=None):
    return _build("factorization", read_json(path), path, ring)


def load_morphism(path, ring=None):
    return _build("morphism", read_json(path), path, ring)


def load_chain(path, ring=None):
    return _build("chain", read_json(path), path, ring)


def load_gamma(path, ring=None):
    return _build("gamma", read_json(path), path, ring)


def sniff_kind(data):
    """Classify an object file by its keys."""
    if not isinstance(data, dict):
        return "unknown"
    if "modules" in data:
        return "chain"
    maps = data.get("maps")
    if isinstance(maps, list) and maps and isinstance(maps[0], dict) and "row" in maps[0]:
        return "gamma"
    if "ranks" in data:
        return "factorization"
    if "components" in data:
        return "morphism"
    return "unknown"


def load_any(path, ring=None):
    """Load an object file of sniffed kind; returns (kind, object)."""
    data = read_json(path)
    kind = sniff_kind(data)
    if kind not in _BUILDERS:
        raise InputError("%s: cannot tell what kind of object this is" % path)
    return kind, _build(kind, data, path, ring)
