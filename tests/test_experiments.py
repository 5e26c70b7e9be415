"""The CSV writer's byte rule and the snapshot reader's edges."""

import warnings

import numpy as np
import pytest

from barolab import ConfigError, Grid
from barolab.experiments import CSV_BLOCK_ROWS, read_snapshot, write_csv


def reference_text(header, rows):
    """The text of the rule every CSV was written by: ``%.17g`` of ``float(v)``, strings as is."""
    lines = [header] + [",".join(v if isinstance(v, str) else format(float(v), ".17g")
                                 for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_and_read(path, header, columns):
    write_csv(path, header, columns)
    return path.read_bytes().decode("utf-8")


class TestWriteCsv:
    def test_edge_values_keep_their_bytes(self, tmp_path):
        floats = np.array([-0.0, 5e-324, 1e16, 1e17, 0.1, 1 / 3, np.inf, -np.inf, np.nan])
        scalars = tuple(np.float64(v) * 3 for v in floats)  # numpy scalars, as in zip(*rows)
        ints = (0, -7, 3, 2**53 + 1, 2**60, 10**17, -(10**16), 1, 2)
        names = tuple(f"snapshot_{i:06d}.csv" for i in range(len(floats)))
        rows = list(zip(floats, scalars, ints, names))
        text = write_and_read(tmp_path / "t.csv", "a,b,i,s", (floats, scalars, ints, names))
        assert text == reference_text("a,b,i,s", rows)
        assert text == write_and_read(tmp_path / "r.csv", "a,b,i,s", zip(*rows))

    def test_blocks_join_without_a_seam(self, tmp_path):
        n = 2 * CSV_BLOCK_ROWS + 1
        bits = np.random.default_rng(7).integers(0, 2**64, size=(3, n), dtype=np.uint64)
        x, rho, u = bits.view(np.float64)  # every class of double: subnormal, inf, nan
        text = write_and_read(tmp_path / "t.csv", "x,rho,u", (x, rho, u))
        assert text == reference_text("x,rho,u", zip(x, rho, u))
        assert text.count("\n") == n + 1

    @pytest.mark.parametrize("columns", [(), (np.empty(0), np.empty(0))],
                             ids=["no_columns", "empty_columns"])
    def test_zero_rows_write_the_header(self, tmp_path, columns):
        assert write_and_read(tmp_path / "t.csv", "a,b", columns) == "a,b\n"
        assert write_and_read(tmp_path / "z.csv", "a,b", zip(*[])) == "a,b\n"


class TestReadSnapshot:
    def test_round_trip_is_bitwise(self, tmp_path):
        grid = Grid.periodic(1.0, 16)
        rng = np.random.default_rng(3)
        rho, u = 1.0 + rng.random(16), rng.standard_normal(16)
        write_csv(tmp_path / "s.csv", "x,rho,u,m", (grid.x, rho, u, rho * u))
        got_rho, got_u = read_snapshot(tmp_path / "s.csv", grid)
        assert np.array_equal(got_rho, rho) and np.array_equal(got_u, u)
        assert got_rho.flags.c_contiguous and got_u.flags.c_contiguous

    def test_spaces_around_header_names_are_dropped(self, tmp_path):
        grid = Grid.periodic(1.0, 8)
        path = tmp_path / "s.csv"
        rows = "".join(f"{x},{1 + x},{-x}\n" for x in grid.x.tolist())
        path.write_text("x, rho , u\n" + rows)
        old = np.genfromtxt(path, delimiter=",", names=True)  # the reader this one replaced
        rho, u = read_snapshot(path, grid)
        assert np.array_equal(rho, old["rho"]) and np.array_equal(u, old["u"])

    @pytest.mark.parametrize("body, message", [
        ("x,rho,u\n", "has 0 rows, grid has 8"),
        ("x,rho,u\n\n", "has 0 rows, grid has 8"),
        ("x,rho,u\n0,1,0\n", "has 1 rows, grid has 8"),
        ("x,rho,u\n" + "0,1\n" * 8, "cannot be read: 2 columns under a header of 3"),
        ("x,rho,u\n0,1,0\n0,1\n" + "0,1,0\n" * 6, "cannot be read"),
        ("x,rho,u\n0,,0\n" + "0,1,0\n" * 7, "cannot be read"),
        ("x,u\n" + "0,1\n" * 8, "has no rho column"),
    ], ids=["header_only", "blank_body", "too_few_rows", "short_rows", "ragged_rows",
            "empty_field", "no_rho"])
    def test_bad_files_are_config_errors_even_with_warnings_as_errors(self, tmp_path, body,
                                                                      message):
        path = tmp_path / "s.csv"
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=message):
                read_snapshot(path, Grid.periodic(1.0, 8))

    def test_bytes_that_are_not_utf8_are_a_config_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x,rho,u\n0,\xff,0\n")
        with pytest.raises(ConfigError, match="cannot be read"):
            read_snapshot(path, Grid.periodic(1.0, 8))
