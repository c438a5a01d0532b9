"""The public surface: each module's ``__all__``, and the package's union of them."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import io
import tokenize
from functools import cached_property
from pathlib import Path

import floodgraph

ROOT = Path(__file__).resolve().parent.parent

# The code a public name must be called from: the library itself, the benchmark,
# the scripts, and the acceptance criteria with their fixtures.
CALLERS = [
    *sorted((ROOT / "src" / "floodgraph").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
]

SURFACE = {
    "errors": ["ConstructionError", "FloodgraphError", "GraphFormatError", "PreconditionError"],
    "weights": [
        "BOTTOM", "TOP", "Weight", "join", "meet", "parse_weight", "weight_succ",
    ],
    "graphs": [
        "Edge", "Graph", "NodeFunction", "build_graph", "connected_components", "grid_graph",
        "partial_graph",
    ],
    "formats": [
        "HEADER", "parse_graph", "parse_node_values", "read_pgm", "serialize_graph", "write_pgm",
    ],
    "hydro": [
        "LakePartition", "ValidationReport", "derive_edge_graph", "flat_zones",
        "is_edge_flooding", "is_node_flooding", "lakes", "regional_minima",
    ],
    "ultrametric": [
        "Funnel", "distance_matrix", "flooding_distance_all", "mst",
    ],
    "solvers": [
        "SolverResult", "SolverStats", "augment_with_dummy", "berge_flood", "ceiling_minima",
        "core_expanding_flood", "dijkstra_flood", "marker_segmentation", "oracle_flood",
        "prim_flood",
    ],
    "dendrogram": [
        "Cluster", "Dendrogram", "build_dendrogram", "build_lake_dendrogram", "dendrogram_flood",
        "is_dendrogram",
    ],
    "reductions": [
        "ContractionMap", "contract_close_flood", "contract_flat_zones", "local_flood",
        "waterfall_flooding",
    ],
}


def test_each_module_lists_the_names_it_defines_and_the_package_exports():
    declared = []
    for name, expected in SURFACE.items():
        module = importlib.import_module(f"floodgraph.{name}")
        assert sorted(module.__all__) == sorted(expected), name
        declared += module.__all__
        for public in module.__all__:
            value = getattr(module, public)
            assert getattr(floodgraph, public) is value
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, public
    assert len(declared) == len(set(declared)) == 57
    assert sorted(floodgraph.__all__) == sorted(declared)


def public_classes() -> dict[str, type]:
    """The public classes the package defines, by name."""
    values = {name: getattr(floodgraph, name) for name in floodgraph.__all__}
    return {
        name: value for name, value in values.items()
        if inspect.isclass(value) and value.__module__.startswith("floodgraph.")
    }


def fields_of(cls: type) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()


def methods_of(cls: type) -> set[str]:
    """The public methods, properties and cached_properties a class defines;
    dunders and dataclass fields are not among them."""
    fields = fields_of(cls)
    return {
        member for member, value in vars(cls).items()
        if not member.startswith("_") and member not in fields
        and (inspect.isfunction(value) or isinstance(value, (property, cached_property)))
    }


def test_no_public_name_is_a_second_spelling():
    """No public name is bound to an object that another public name, or a
    public method of a public class, already carries: one spelling per result."""
    carriers: dict[int, list[str]] = {}
    for name in floodgraph.__all__:
        carriers.setdefault(id(getattr(floodgraph, name)), []).append(name)
    for name, cls in public_classes().items():
        for member in methods_of(cls):
            if inspect.isfunction(method := vars(cls)[member]):
                carriers.setdefault(id(method), []).append(f"{name}.{member}")
    assert [names for names in carriers.values() if len(names) > 1] == []


def test_graph_and_dendrogram_hold_only_their_arrays():
    """Tests compare a graph's or a dendrogram's arrays: neither class defines
    an equality or a hash, and a dendrogram lists its clusters' leaves only
    through ``all_members()``."""
    for cls in (floodgraph.Graph, floodgraph.Dendrogram):
        assert not {"__eq__", "__hash__"} & set(vars(cls)), cls.__name__
    assert "members" not in vars(floodgraph.Dendrogram)


# Python 3.12 and later (PEP 701) split an f-string into tokens, with the NAME
# tokens of its ``{...}`` fields; earlier versions keep it one STRING token.
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_tokens(path: Path) -> list[tokenize.TokenInfo]:
    """The tokens of a file, less every token inside an f-string.

    Strings and comments are then single tokens on every Python, so the
    words in them do not count.
    """
    tokens: list[tokenize.TokenInfo] = []
    depth = 0  # f-strings open around the current token
    text = path.read_text(encoding="utf-8")
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == _FSTRING_START:
            depth += 1
        elif token.type == _FSTRING_END:
            depth -= 1
        elif not depth:
            tokens.append(token)
    return tokens


def called_names(path: Path) -> set[str]:
    """The NAME tokens of a file, less the names that ``def`` and ``class`` bind."""
    names: set[str] = set()
    previous = None
    for token in code_tokens(path):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        previous = token.string
    return names


def test_every_public_name_has_a_caller():
    called = set().union(*map(called_names, CALLERS))
    assert sorted(set(floodgraph.__all__) - called) == []


def attribute_names(path: Path) -> set[str]:
    """The names a file reads as an attribute: each NAME token right after a
    ``.`` and not right before an ``=``, which would only assign it."""
    tokens = code_tokens(path)
    return {
        token.string
        for before, token, after in zip(tokens, tokens[1:], tokens[2:])
        if token.type == tokenize.NAME and before.string == "." and after.string != "="
    }


def test_every_public_member_has_a_caller():
    """Each method, property and cached_property of a public class is read as
    ``.name`` by a caller; dunders and dataclass fields are exempt."""
    called = set().union(*map(attribute_names, CALLERS))
    members = {
        f"{name}.{member}" for name, cls in public_classes().items() for member in methods_of(cls)
    }
    assert members
    assert sorted(member for member in members if member.split(".")[1] not in called) == []


def test_no_public_member_is_a_namesake():
    """The caller census matches ``.name`` reads by name alone, so no public
    method or property may share its name with a field, slot, method or
    property of another public class, whose readers would count as its own."""
    classes = public_classes()
    attributes = {
        name: fields_of(cls) | set(vars(cls).get("__slots__", ())) | methods_of(cls)
        for name, cls in classes.items()
    }
    assert sorted(
        f"{name}.{member}"
        for name, cls in classes.items()
        for member in methods_of(cls)
        if any(member in names for other, names in attributes.items() if other != name)
    ) == []


def test_every_public_slot_is_read():
    """Each public ``__slots__`` entry of a public class that is not a
    dataclass is read as ``.name`` by a caller: state that no caller reads
    is not built."""
    called = set().union(*map(attribute_names, CALLERS))
    slots = {
        f"{name}.{slot}"
        for name, cls in public_classes().items() if not dataclasses.is_dataclass(cls)
        for slot in vars(cls).get("__slots__", ()) if not slot.startswith("_")
    }
    assert "Dendrogram.diam" in slots
    assert sorted(slot for slot in slots if slot.split(".")[1] not in called) == []


def test_the_library_reads_no_environment():
    """Options come from arguments alone: no module under ``src/`` names
    ``environ`` or ``getenv`` outside its strings and comments."""
    for path in sorted((ROOT / "src" / "floodgraph").glob("*.py")):
        names = {token.string for token in code_tokens(path) if token.type == tokenize.NAME}
        assert not names & {"environ", "getenv"}, path.name


# The parameters of the functions whose test-only options are gone: each
# option returns only with a caller outside the tests.
PARAMETERS = {
    "berge_flood": ("graph", "omega", "schedule"),
    "ceiling_minima": ("graph", "omega"),
    "connected_components": ("graph", "keep"),
    "dijkstra_flood": ("graph", "omega"),
    "flat_zones": ("graph", "values"),
    "marker_segmentation": ("graph", "markers", "engine"),
    "prim_flood": ("graph", "sources"),
    "regional_minima": ("graph", "values"),
    "waterfall_flooding": ("graph",),
    "write_pgm": ("raster",),
}


def test_trimmed_functions_keep_their_parameters():
    for name, expected in PARAMETERS.items():
        assert tuple(inspect.signature(getattr(floodgraph, name)).parameters) == expected, name
    schedule = inspect.signature(floodgraph.berge_flood).parameters["schedule"]
    assert schedule.default == "gauss_seidel"  # the CLI's spelling, not a second one
    keep = inspect.signature(floodgraph.connected_components).parameters["keep"]
    assert keep.annotation == "Sequence[bool]"  # a flag per edge id, not a function
    for name in ("flat_zones", "regional_minima"):
        values = inspect.signature(getattr(floodgraph, name)).parameters["values"]
        assert values.default is inspect.Parameter.empty, name
