"""The per-grid caches: shared where only the grid and the rule matter,
read-only where numpy allows, and invisible in every output."""

from importlib import resources

import numpy as np
import pytest

from beambvp import cli, csvtext, grid, linear, solver
from beambvp.exprlang import parse
from beambvp.kernel import make_context
from test_cli import write_problem
from test_linear import reference_operator

# every cache that holds arrays of one grid, whatever the context
GRID_CACHES = (grid.nodes, linear._geometry, solver._grid, csvtext._node_column)


def test_contexts_on_one_grid_and_rule_share_one_geometry():
    linear._geometry.cache_clear()
    contexts = [make_context(parse(text, "t")) for text in ("t^2", "0.9*t")]
    assert contexts[0].taus is contexts[1].taus  # one rule for one panel count
    y = np.linspace(1.0, 2.0, 401)
    applied = [linear.operator_matrix(ctx, 400)(y) for ctx in contexts]
    info = linear._geometry.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # each operator applies its own context's correction, bit for bit
    assert not np.array_equal(applied[0], applied[1])
    for ctx, u in zip(contexts, applied):
        assert np.array_equal(u.view(np.int64), reference_operator(ctx, 400)(y).view(np.int64))
    # the float arrays are read-only; the two index arrays p and panel_ends are not,
    # since numpy's take would copy a read-only index array on every apply
    geometry = linear._geometry(400, contexts[0].taus.tobytes())
    arrays = [part for part in geometry if isinstance(part, np.ndarray)]
    assert [array.flags.writeable for array in arrays] == [True, True] + [False] * 5


def test_grid_arrays_are_read_only_and_shared():
    ts, *arrays = solver._grid(400)
    assert ts is grid.nodes(400) is grid.GridFunction.constant(0.0, 400).ts
    for array in (ts, *arrays):
        with pytest.raises(ValueError):
            array[0] = 1.0


def _percent(cells):
    line = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    return ((line * len(cells)) % tuple(cells.ravel().tolist())).encode()


@pytest.mark.parametrize("n, cols", [(8, 2), (5000, 2), (3000, 4)])
def test_only_a_column_bit_equal_to_the_nodes_is_taken_from_the_cache(n, cols):
    ts = grid.nodes(n)
    cells = np.column_stack([ts] + [ts**k + 0.1 for k in range(2, cols + 1)])
    signed = cells.copy()
    signed[0, 0] = -0.0  # equal to the node t = 0, but not bit-equal
    csvtext._node_column.cache_clear()
    for table in (cells, cells, signed):
        assert b"".join(csvtext.table_chunks(table)) == _percent(table)
    info = csvtext._node_column.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_warm_caches_write_what_cold_ones_do(tmp_path, capsys):
    fixtures = {name: resources.files("beambvp.fixtures").joinpath(f"{name}.problem").read_text()
                for name in ("example_a", "example_b")}
    runs = [("example_a", 800), ("example_a", 1600), ("example_a", 800), ("example_b", 800)]
    out, plot = tmp_path / "u.csv", tmp_path / "plot.csv"

    def solve(name, n):
        text = fixtures[name].replace("grid_n = 800", f"grid_n = {n}")
        code = cli.main(["solve", write_problem(tmp_path, text), "--out", str(out),
                         "--plot-data", str(plot)])
        return code, capsys.readouterr(), out.read_bytes(), plot.read_bytes()

    def clear():
        for cache in GRID_CACHES:
            cache.cache_clear()

    clear()
    warm = [solve(name, n) for name, n in runs]
    assert all(cache.cache_info().hits for cache in GRID_CACHES)
    cold = []
    for name, n in runs:
        clear()
        cold.append(solve(name, n))
    assert [run[0] for run in warm] == [0] * len(runs)
    assert warm == cold
