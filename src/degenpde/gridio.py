"""On-disk formats: binary grid functions, CSV reports, run manifests.

Grid-function files are little-endian: a 5-byte magic "DGPH1", then u32
spatial dimension d, u32 time-slice count, d u32 node counts, then the
values as f64 in row-major (time-major) order.  Loading validates the
magic and that the payload length matches the header exactly; grid
geometry is not stored and must be supplied by the caller.

Every CSV file is written by csv_text, the one home of the CSV format:
a header line, one comma-joined line per row and a trailing newline, with
each float printed to 17 significant digits ('.' as the decimal
separator) so that it round-trips, and a text cell quoted as RFC 4180
asks when it holds a comma, a double quote or a line break.  Reruns with
the same config and seed produce byte-identical CSVs; only the manifest
carries a timestamp and timings.
"""

from __future__ import annotations

import json
import resource
import struct
import time

import numpy as np

from .grid import GridFunction

MAGIC = b"DGPH1"


class FormatError(ValueError):
    pass


def save_grid_function(path, gf):
    values = np.ascontiguousarray(gf.values, dtype="<f8")
    d = gf.grid.d
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", d, gf.grid.n_t))
        fh.write(struct.pack("<%dI" % d, *gf.grid.shape))
        fh.write(values.tobytes())


def load_grid_function(path, grid):
    """Read a file's values as a GridFunction on grid, whose shape and
    slice count must match the file's."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != MAGIC:
        raise FormatError("bad magic %r; not a grid-function file"
                          % raw[:5])
    if len(raw) < 13:
        raise FormatError("truncated header")
    d, n_t = struct.unpack_from("<II", raw, 5)
    if d < 1 or d > 16:
        raise FormatError("implausible dimension %d" % d)
    if len(raw) < 13 + 4 * d:
        raise FormatError("truncated header")
    shape = struct.unpack_from("<%dI" % d, raw, 13)
    count = n_t * int(np.prod(shape))
    expect = 13 + 4 * d + 8 * count
    if len(raw) != expect:
        raise FormatError("payload length %d does not match header "
                          "(expected %d bytes)" % (len(raw), expect))
    values = np.frombuffer(raw, dtype="<f8", offset=13 + 4 * d,
                           count=count).reshape((n_t,) + shape)
    if grid.shape != shape or grid.n_t != n_t:
        raise FormatError("file shape %s x %d does not match grid %s x %d"
                          % (shape, n_t, grid.shape, grid.n_t))
    return GridFunction(grid, values.copy())


def csv_text(columns, rows):
    """CSV text: a header of columns, then one line per row; a float cell
    is printed as %.17g and any other cell with str, in double quotes
    (doubled inside) if it holds a comma, a double quote or a newline."""
    lines = [",".join(columns)]
    lines += [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _cell(v):
    if isinstance(v, float):
        return "%.17g" % v
    text = str(v)
    if any(ch in text for ch in ',"\n\r'):
        return '"%s"' % text.replace('"', '""')
    return text


def solve_report_csv(report):
    """One row per time step: step, iterations, true relative residual.

    The iterations column is 1 for a step that back-solves with a sparse
    LU, including a step that factored its own matrix after BiCGStab ran
    out of budget.  For a step preconditioned by an LU of an earlier
    matrix it is the BiCGStab iteration count, taken as the
    preconditioner's applications halved and rounded up, so that an
    iteration that stops at its half step counts too.  A step whose right
    side is zero is 0.
    """
    return csv_text(("step", "iterations", "residual"), report.steps)


def convergence_csv(study):
    """One row per rung, then the fitted order as a comment line."""
    text = csv_text(("h", "dt", "sup_error"), study.rows)
    if study.order is not None:
        text += "# fitted order (%s): %s\n" % (study.mode, _cell(study.order))
    return text


def write_manifest(path, config, command, seed, wall_times):
    """Write the run's manifest.  wall_times holds (experiment, seconds)
    in config order.  cpu_s and peak_rss_mb cover this process so far and
    the children it has waited for, the pool's workers among them;
    peak_rss_mb adds this process's peak to the largest child's."""
    own, children = (resource.getrusage(who) for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    payload = {
        "command": command,
        "seed": seed,
        "config": config,
        "experiments": [{"name": name, "wall_s": seconds}
                        for name, seconds in wall_times],
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in (own, children)),
        "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) / 1024.0,
        "versions": _versions(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _versions():
    """Versions of the libraries the package runs on."""
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__}
