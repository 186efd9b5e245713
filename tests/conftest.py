import numpy as np
import pytest

from expanderlp import (
    GF,
    ExpanderCode,
    complete_bipartite,
    cycle_graph,
    generalized_reed_solomon,
    random_regular_bipartite,
    repetition,
    single_parity_check,
)

# one verdict line per acceptance criterion, echoed after the test summary
# (capture-proof: written through pytest's own terminal reporter)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def four_cycle_rep3():
    """2+2 vertices on a 4-cycle, ternary repetition locals: 9 codewords."""
    graph = cycle_graph(2)
    local = repetition(GF(3), 2)
    return ExpanderCode(graph, local, local)


@pytest.fixture(scope="session")
def k33_parity2():
    """K_{3,3} with binary single-parity-check locals: 512 word space."""
    graph = complete_bipartite(3)
    local = single_parity_check(GF(2), 3)
    return ExpanderCode(graph, local, local)


@pytest.fixture(scope="session")
def k44_rep4():
    """K_{4,4} with binary repetition locals: one error edge puts both its
    endpoints exactly at the peeling threshold, 4 * 1 == 4."""
    local = repetition(GF(2), 4)
    return ExpanderCode(complete_bipartite(4), local, local)


@pytest.fixture(scope="session")
def k66_rep2():
    """K_{6,6} with binary repetition locals: the all-zero/all-one code."""
    graph = complete_bipartite(6)
    local = repetition(GF(2), 6)
    return ExpanderCode(graph, local, local)


@pytest.fixture(scope="session")
def k66_grs():
    """K_{6,6} with [6,2] generalized Reed-Solomon locals over GF(7)."""
    graph = complete_bipartite(6)
    local = generalized_reed_solomon(GF(7), 6, 2)
    return ExpanderCode(graph, local, local)


@pytest.fixture(scope="session")
def r20_rep2():
    """Random 6-regular bipartite graph on 20+20 vertices, binary repetition."""
    graph = random_regular_bipartite(20, 6, seed=7)
    local = repetition(GF(2), 6)
    return ExpanderCode(graph, local, local)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
