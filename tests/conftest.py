import pytest

from barnette.corpus import build_named, generate_prism

# Graphs small enough to brute-force against.
DESK_NAMES = [
    "cube",
    "prism_4",
    "prism_6",
    "prism_8",
    "prism_10",
    "dodecahedron",
    "truncated_octahedron",
    "two_cubes_bridge",
    "three_cubes_chain",
    "tutte_graph",
]


@pytest.fixture(scope="session")
def corpus_graphs():
    return {name: build_named(name) for name in DESK_NAMES}


@pytest.fixture(scope="session")
def cube():
    return build_named("cube").embedding


@pytest.fixture(scope="session")
def hex_prism():
    return generate_prism(3).embedding


@pytest.fixture(scope="session")
def tutte():
    return build_named("tutte_graph").embedding


@pytest.fixture(scope="session")
def bridged_doc():
    """A cubic planar 10-vertex document with the bridge 4-5, a triangle
    and a square on each side.  Its outer face 1 walks the bridge twice
    and repeats vertices 4 and 5."""
    return (
        "n 10\n0: 1 2 3\n1: 0 3 4\n2: 0 4 3\n3: 0 2 1\n4: 1 2 5\n"
        "5: 4 6 7\n6: 5 8 9\n7: 5 9 8\n8: 6 7 9\n9: 6 8 7\n"
    )
