"""Command-line interface: solve, figure, verify, sweep.

Exit codes: 0 success, 1 input/validation problem, 2 verification failure.
Each CSV cell is exactly ``'%.17g' % x`` (printf's %.17g: 17 significant
digits, '.' decimals), cells are joined by ',' and lines end in '\\n', so the
output is byte-identical across runs for identical inputs.

``solve``'s ``bound_state_count`` and ``sweep``'s ``count`` are the
oracle's count of every state in its search range (``state_count``).  Where
the ground state is already known, the oracle certifies it instead of
searching: in canonical and sheets modes ``solve`` prints the exponential
map's ground state and passes its decay rate to
``oracle.certify_ground_states``, and ``sweep`` passes the closed form's
m*alpha/hbar^2; one pass of three columns per problem confirms the state to
1e-12 relative in kappa and counts at 0+, and ``sweep`` reads the oracle's
state there, rebuilt in one more pass.  Where it does not certify, ``solve``
prints the same output, its count being the search's bit for bit, and
``sweep`` searches the cell (``lowest=1``, in one search for all such
cells); each writes one warning line on stderr.  In map modes a count of 0
is an error, since the two routes disagree.  In quantum mode there is no
map, and ``solve`` asks the oracle for the ground state alone
(``lowest=1``); a ground state the search did not isolate (an interval in
its ``unresolved``, as a doublet closer than the float spacing gives) comes
with a warning line on stderr naming the interval.  The normalization
constant A is carried only as its natural log, which stays
finite where A exceeds the float range: ``solve`` prints
``log_norm_constant`` in every mode, and ``sweep`` its ``log_A`` column; a
``log_norm_constant`` of -inf, where psi at the last site is 0, comes with a
warning line on stderr, and so does each ``sweep`` row whose
``closed_vs_oracle_resid`` exceeds 1e-9 or is NaN.  Warnings are written
once the command has succeeded, so a command that fails writes only its
``error:`` line.

Config files are flat ``key = value`` lines; ``#`` starts a comment.  One
reader serves the ``solve``, ``figure`` and ``sweep`` configs and the
``--units`` file (atomic units without it): each declares its keys once, as
a table of parsers that hold each key's range rule, and an unknown,
duplicate or missing key is refused.  A flag named like a key (``--out``,
``--window``, ``--points``) goes through that key's parser and overrides
the key, which is still checked.  Sweeps run their cells in the
order of the parameter grid: every cell's closed forms and problem first,
then one certificate pass for all of them, which serves many problems at once.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import closedform, oracle
from .closedform import CrystalParams
from .duality import DeltaPotentialProblem, ground_state_from_electrostatics, nan_max, to_quantum
from .electrostatics import SheetArray, potential_at, potential_at_points, solve_sheets
from .errors import NoBoundStatesError, SheetCrystalError
from .units import UnitSystem, atomic_units, sigma_from_alpha
from .verification import crystal_figure_samples, run_verification


class ConfigError(ValueError):
    """Bad command line or config file content; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for verify only
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _warn(lines: list[str]) -> None:
    """One ``warning:`` line on stderr each; written once the command has succeeded."""
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


# --------------------------------------------------------------------------
# config file handling
# --------------------------------------------------------------------------

def _read_key_values(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_float(key: str, value: str) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: not a number: {value!r}") from exc
    if not math.isfinite(out):
        raise ConfigError(f"field {key!r}: must be finite, got {value!r}")
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"field {key!r}: not an integer: {value!r}") from exc


def _parse_pairs(key: str, value: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"field {key!r}: expected 'position:value', got {chunk!r}")
        left, right = chunk.split(":", 1)
        pairs.append((_parse_float(key, left.strip()), _parse_float(key, right.strip())))
    if not pairs:
        raise ConfigError(f"field {key!r}: needs at least one 'position:value' pair")
    return pairs


def _parse_float_list(key: str, value: str) -> list[float]:
    items = [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    if not items:
        raise ConfigError(f"field {key!r}: needs at least one value")
    return [_parse_float(key, item) for item in items]


def _parse_int_list(key: str, value: str) -> list[int]:
    value = value.strip()
    if ".." in value:
        lo_text, hi_text = value.split("..", 1)
        lo, hi = _parse_int(key, lo_text.strip()), _parse_int(key, hi_text.strip())
        if hi < lo:
            raise ConfigError(f"field {key!r}: empty range {value!r}")
        return list(range(lo, hi + 1))
    items = [chunk.strip() for chunk in value.split(",") if chunk.strip()]
    if not items:
        raise ConfigError(f"field {key!r}: needs at least one value")
    return [_parse_int(key, item) for item in items]


def _parse_path(key: str, value: str) -> Path | None:
    return Path(value) if value else None


def _parse_positive(key: str, value: str) -> float:
    out = _parse_float(key, value)
    if out <= 0:
        raise ConfigError(f"field {key!r}: must be > 0, got {out}")
    return out


def _parse_points(key: str, value: str) -> int:
    points = _parse_int(key, value)
    if points < 2:
        raise ConfigError(f"field {key!r}: need at least 2 sample points, got {points}")
    return points


def _parse_n_values(key: str, value: str) -> list[int]:
    n_values = _parse_int_list(key, value)
    if any(n < 1 for n in n_values):
        raise ConfigError(f"field {key!r}: every N must be >= 1")
    return n_values


def _parse_window(key: str, value: str) -> tuple[float, float]:
    parts = [chunk.strip() for chunk in value.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"field {key!r}: expected 'lo,hi', got {value!r}")
    lo, hi = _parse_float(key, parts[0]), _parse_float(key, parts[1])
    if not lo < hi:
        raise ConfigError(f"field {key!r}: bounds must be ordered, got {value!r}")
    return lo, hi


def _parse_config(entries: dict[str, str], fields: dict, required, where: str) -> dict:
    """The entries of a config file, each value parsed by ``fields[key](key, text)``.

    The first unknown key and the first missing ``required`` key (in sorted
    order) are refused, naming ``where``.
    """
    unknown = sorted(set(entries) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for {where}")
    missing = sorted(set(required) - set(entries))
    if missing:
        raise ConfigError(f"field {missing[0]!r}: required for {where}")
    return {key: fields[key](key, text) for key, text in entries.items()}


def _with_flags(config: dict, fields: dict, args) -> dict:
    """``config`` with every given flag that shares a key's name, parsed by that key's parser."""
    for key, parse in fields.items():
        text = getattr(args, key, None)
        if text is not None:
            config[key] = parse(key, text)
    return config


_UNIT_FIELDS = dict.fromkeys(("hbar", "mass", "eps0", "V0", "a0"), _parse_float)


def _load_units(path) -> UnitSystem:
    if path is None:
        return atomic_units()
    values = _parse_config(_read_key_values(Path(path)), _UNIT_FIELDS, _UNIT_FIELDS, "units file")
    try:
        return UnitSystem(**values)
    except ValueError as exc:
        raise ConfigError(f"units file: {exc}") from exc


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two halves
_GROUP_BASE = np.array([[0], [10000], [20000], [30000]], dtype=np.int32)  # the q-th group's keys
_ROW = np.arange(18, dtype=np.int16)[:, None]  # a cell's rows of digits and point
_BLOCK_CELLS = 2**15  # cells per block of _csv_cells: ~5 MB of working arrays


@functools.cache  # built by the first CSV, so importing the module builds no table
def _cell_tables() -> tuple:
    """The tables of :func:`_csv_cells`, indexed by decimal exponent or digit group.

    ``scale`` holds 10**k for k = -300..300 as rows (hi, hi's head, hi's
    tail, lo): hi + lo is 10**k to ~2**-106 relative, from exact integer
    arithmetic, and head + tail is hi split in two 26-bit halves.  The group
    tables take the key g + 10000*q of the q-th 4-digit group g after a
    cell's first digit: ``groups`` holds g's 4 chars as one uint32, and
    ``places`` the place among the 17 digits of g's last nonzero digit, 0
    where g is 0 (1 for q = 0, the first digit's place).  For e = -300..300,
    ``prefix`` holds %g's "0." and zeros before the digits of a fixed-notation
    cell below 1 and ``suffix`` the "e+dd" after those of an
    exponent-notation cell, NUL-padded to 5 chars, one row per char; ``lead``
    holds the digits before the point, 0 below 1.
    """
    scale = []
    for k in range(-300, 301):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # int / int is correctly rounded
        hi_num, hi_den = hi.as_integer_ratio()
        scale.append((hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(scale).T
    head = _SPLIT * hi
    head -= head - hi
    group, q = np.arange(10000), np.arange(4)[:, None]
    chars = (group[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)  # '0000'..'9999'
    groups = np.tile(chars.view(np.uint32).ravel(), 4)
    zeros = sum(group % 10**i == 0 for i in (1, 2, 3))  # a nonzero group's trailing zeros
    places = np.where(group > 0, 5 + 4 * q - zeros, q == 0).astype(np.uint8).ravel()
    exponents = range(-300, 301)
    prefix, suffix = (
        np.frombuffer(b"".join(s.ljust(5, b"\0") for s in affix), dtype=np.uint8).reshape(-1, 5).T.copy()
        for affix in ([b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in exponents],
                      [b"" if -4 <= e < 17 else b"e%+03d" % e for e in exponents])
    )
    lead = np.array([e + 1 if 0 <= e < 17 else int(not -4 <= e < 0) for e in exponents], dtype=np.int16)
    tables = np.stack([hi, head, hi - head, lo]), groups, places, prefix, suffix, lead
    for table in tables:  # shared by every call
        table.flags.writeable = False
    return tables


def _decimal(x: np.ndarray) -> tuple:
    """The 17 digits D and exponent e of each cell, |x| ~ D * 10**(e - 16), and its fallback mask.

    D and e are 0 at zeros; the mask marks the nonzero cells whose D is not
    proved to be %'s (see :func:`_csv_cells`), where D may be anything.
    """
    a = np.abs(x)
    fast = (a >= 1e-250) & (a <= 1e250)
    log = np.where(fast, a, 1.0)
    e = np.floor(np.log10(log, out=log), out=log).astype(np.int16)
    a[~fast] = 0.0
    hi, head, tail, lo = _cell_tables()[0].take(316 - e, axis=1)  # 10**(16 - e)
    # Dekker: a = a_head + a_tail by Veltkamp's split, and a * hi = p + err exactly
    split = _SPLIT * a
    a_head = split - (split - a)
    a_tail = a - a_head
    p = a * hi
    residual = (((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail) + a * lo
    rounded = np.rint(residual)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    slow = ~fast | (np.abs(residual - rounded) > 0.5 - 1e-6)
    slow |= digits >= 10**17
    slow |= (p - 1e16) + residual < -0.05 + 1e-6  # p and 1e16 are integers, and p - 1e16 is exact
    slow &= x != 0.0
    return digits, e, slow


def _csv_cells(table) -> str:
    """The CSV lines of a 2-D table: each cell as ``'%.17g' % x``, joined by ',' and '\\n'.

    One vectorised pass, byte for byte the per-cell ``%``.  Each cell's 17
    digits D and decimal exponent e, |x| ~ D * 10**(e - 16), come from
    e = floor(log10|x|) and the exact-scaling core of float printing:
    |x| * 10**(16 - e) with 10**k held as hi + lo (``_cell_tables``), the
    product |x| * hi taken exactly as p + err by Dekker's two-product
    (Numer. Math. 18, 224 (1971)), and D rounded from p and the residual
    err + |x| * lo, which is good to ~1e-14.  A cell falls back to
    ``'%.17g' % x`` where the vector path cannot prove its digits: within
    1e-6 of a rounding tie (%'s round-half-even decides, as in 1 + 2**-17 ->
    1.0000076293945312; p being even, an exact tie would round right here
    too, but a near tie at a scale 10**k that is not a double might not),
    D >= 10**17, or D = 10**16 rounded up from more than 0.05 below it
    (log10 rounded e up, so the digits are one place short; from within
    0.05 the 17 digits at e - 1 round up to 10**17, which is the same
    output), and every NaN, +-inf and |x| outside [1e-250, 1e250].  So the
    output does not depend on how log10 rounds.  Zeros stay on the vector
    path, as D = 0 and e = 0.

    Layout: %g's rules, fixed notation for -4 <= e < 17 and else an exponent
    of at least 2 digits, with no trailing zeros or bare point and a sign on
    -0.  Each cell is one column of a char-major uint8 template of 30 rows:
    the sign, 5 rows of "0.000" prefix, 18 rows of digits with the point
    after digit ``lead - 1``, 5 rows of "e+dd" suffix and the separator.  The
    digits come four at a time from the '0000'..'9999' table and the count
    kept from the place of the last nonzero one; unused chars are NUL, and
    one transpose and ``bytes.translate`` delete them.  The rows go in blocks
    of ``_BLOCK_CELLS`` cells, which bounds the working memory whatever the
    table's size (a million-point ``solve`` peaks at ~250 MB, ~380 MB with
    per-cell ``%``, ~730 MB in one block); at their default sizes the CSVs of
    ``solve``, ``figure`` and ``sweep`` are one block each.
    """
    cells = np.asarray(table, dtype=float)
    rows = max(1, _BLOCK_CELLS // cells.shape[1])
    return "".join(_csv_block(cells[start:start + rows]) for start in range(0, len(cells), rows))


def _csv_block(cells: np.ndarray) -> str:
    """The CSV lines of one block of rows of :func:`_csv_cells`."""
    width = cells.shape[1]
    x = cells.ravel()
    digits, e, slow = _decimal(x)
    _, groups, places, prefix, suffix, lead_of = _cell_tables()

    # D = top * 10**16 + four 4-digit groups, each keyed for the group tables
    high = digits // 10**8
    top = high // 10**8
    halves = np.empty((2, x.size), dtype=np.int32)
    np.subtract(high, top * 10**8, out=halves[0], casting="unsafe")
    np.subtract(digits, high * 10**8, out=halves[1], casting="unsafe")
    keys = np.empty((4, x.size), dtype=np.int32)
    np.floor_divide(halves, 10**4, out=keys[0::2])
    np.subtract(halves, keys[0::2] * 10**4, out=keys[1::2])
    keys += _GROUP_BASE
    chars = np.zeros((19, x.size), dtype=np.uint8)  # NUL, D's 17 digits, NUL
    np.add(top, 48, out=chars[1], casting="unsafe")
    chars[2:18].reshape(4, 4, -1)[...] = groups.take(keys).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1)
    here, before = chars[1:], chars[:-1]

    exponent = e + 300
    lead = lead_of.take(exponent)
    shown = np.maximum(places.take(keys).max(axis=0), lead)
    point = (shown > lead) & (lead > 0)
    at = np.where(point, lead, 18)

    template = np.empty((30, x.size), dtype=np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=template[0])
    prefix.take(exponent, axis=1, out=template[1:6], mode="clip")
    body = template[6:24]  # digit j above the point's row, digit j - 1 below it
    np.subtract(here, before, out=body)
    body *= _ROW < at
    body += before
    body *= _ROW < shown + point
    template[6 + at, np.arange(x.size)] = 46  # a cell with no point puts it in the suffix's first row
    suffix.take(exponent, axis=1, out=template[24:29], mode="clip")
    template[29] = 44
    template[29, width - 1 :: width] = 10
    for i in np.flatnonzero(slow):
        text = b"%.17g" % x[i]
        template[: len(text), i] = np.frombuffer(text, dtype=np.uint8)
        template[len(text) : 29, i] = 0
    return template.T.tobytes().translate(None, b"\0").decode("ascii")


def _emit_csv(header: str, table, out: Path | None, stream) -> None:
    """Write ``header`` and one CSV line per row of ``table`` to ``out``, or to ``stream`` without one.

    ``table`` is a 2-D array or a list of equal-length rows.  Every cell is
    exactly ``'%.17g' % x``, formatted as one array by :func:`_csv_cells`,
    whose docstring gives the cells that fall back to ``%`` (near a rounding
    tie, at the 10**16 and 10**17 boundaries, NaN, +-inf and |x| outside
    [1e-250, 1e250]) and the layout (a char-major template of NUL-padded
    cells, compacted by one transpose and ``bytes.translate``).
    """
    payload = header + "\n" + _csv_cells(table)
    if out is None:
        stream.write(payload)
        stream.write("\n")
    else:
        try:
            out.write_text(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

_MODE_FIELDS = {
    "canonical": {"N": _parse_int, "alpha": _parse_float, "a": _parse_float},
    "sheets": {"sheets": _parse_pairs},
    "quantum": {"deltas": _parse_pairs, "offsets": _parse_float_list},
}


def _parse_mode(key: str, value: str | None) -> str:
    if value not in _MODE_FIELDS:
        raise ConfigError(f"field {key!r}: must be one of canonical, sheets, quantum; got {value!r}")
    return value


_SOLVE_FIELDS = {"mode": _parse_mode, "out": _parse_path, "window": _parse_window, "points": _parse_points}


def _region_offset_at(problem: DeltaPotentialProblem, zs: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(problem.positions, zs, side="right")
    return np.asarray(problem.region_offsets, dtype=float)[idx]


def cmd_solve(args) -> int:
    # the mode picks the table, so it is checked ahead of the other keys
    entries = _read_key_values(Path(args.config))
    mode = _parse_mode("mode", entries.get("mode"))
    fields = {**_SOLVE_FIELDS, **_MODE_FIELDS[mode]}
    config = _with_flags(_parse_config(entries, fields, _MODE_FIELDS[mode], f"mode {mode!r}"), fields, args)
    units = _load_units(args.units)
    warning_lines = []

    if mode == "quantum":
        problem = DeltaPotentialProblem(config["deltas"], config["offsets"], units)
        found = oracle.find_bound_states(problem, lowest=1)
        if not found.states:
            raise SheetCrystalError("the potential binds no state; nothing to solve")
        warning_lines += [
            f"the oracle did not isolate the ground state: its interval kappa in [{_fmt(lo)}, {_fmt(hi)}] stopped "
            "splitting with ends that do not count 1 and 0 states; the state printed is at its midpoint"
            for lo, hi in found.unresolved
        ]
        state = found.states[0]
        psi = state.wavefunction
        energy = state.energy
        # Dual sheet stack implied by the deltas; anchors the gauge for the
        # V column and the tail-matched normalization constant.
        dual = SheetArray([(z, sigma_from_alpha(-g, units)) for z, g in problem.deltas])
        sol = solve_sheets(dual, units)
        z_last = sol.breakpoints[-1]
        # log A = log psi(z_last) - V(z_last)/V0, -inf where psi(z_last) underflowed to 0
        tail = psi.value(z_last)
        log_norm_constant = (math.log(tail) if tail else -math.inf) - potential_at(sol, z_last) / units.V0
    else:
        if mode == "canonical":
            array = CrystalParams(config["N"], config["alpha"], config["a"], units).to_sheet_array()
        else:
            array = SheetArray(config["sheets"])
        sol = solve_sheets(array, units)
        ground = ground_state_from_electrostatics(sol, units)  # NotNormalizable -> exit 1
        problem = to_quantum(sol, units)
        # the state printed is the map's; the oracle certifies its decay rate, and its
        # count at 0+ is the search's count, bit for bit, whether or not it certifies
        kappa = math.sqrt(-2.0 * units.mass * ground.energy) / units.hbar
        (found,) = oracle.certify_ground_states([problem], [kappa])
        if not found.states:
            warning_lines.append(f"the oracle does not certify the map's ground state at energy {_fmt(ground.energy)} "
                            f"(kappa = {_fmt(kappa)}); bound_state_count is the search's")
        if not found.state_count:
            raise SheetCrystalError(
                f"the exponential map gives a ground state at energy {_fmt(ground.energy)}, "
                f"but the oracle finds no bound state (state count {found.state_count}); "
                "the two routes disagree"
            )
        psi = ground.wavefunction
        energy = ground.energy
        log_norm_constant = ground.log_norm_constant

    u_mean = oracle.expectation_potential_numeric(psi, problem)
    t_mean = oracle.expectation_kinetic_numeric(psi, units)

    if "window" in config:
        lo, hi = config["window"]
    else:
        rate = math.sqrt(-2.0 * units.mass * energy) / units.hbar
        if rate == 0.0:
            raise ConfigError(
                f"ground energy {_fmt(energy)} gives no decay length for the default window; pass --window=lo,hi"
            )
        lo = sol.breakpoints[0] - 8.0 / rate
        hi = sol.breakpoints[-1] + 8.0 / rate
    if not math.isfinite(hi - lo):  # np.linspace would fill the window with NaN
        raise ConfigError(f"sampling window {_fmt(lo)},{_fmt(hi)}: its width overflows the float range")
    zs = np.linspace(lo, hi, config.get("points", 2001))
    columns = [zs, potential_at_points(sol, zs), psi.values(zs), _region_offset_at(problem, zs)]
    _emit_csv("z,V,psi,U_region", np.column_stack(columns), config.get("out"), sys.stdout)

    print(f"energy: {_fmt(energy)}")
    print(f"log_norm_constant: {_fmt(log_norm_constant)}")
    print(f"expectation_potential: {_fmt(u_mean)}")
    print(f"expectation_kinetic: {_fmt(t_mean)}")
    print(f"bound_state_count: {found.state_count}")
    if log_norm_constant == -math.inf:  # psi(z_last) is 0: the summary stands, and stderr says so
        warning_lines.append(
            f"psi is 0 at the last site z_last = {_fmt(sol.breakpoints[-1])}; log_norm_constant is -inf"
        )
    _warn(warning_lines)
    return 0


# --------------------------------------------------------------------------
# figure
# --------------------------------------------------------------------------

_FIGURE_FIELDS = {"n_values": _parse_n_values, "alpha_a": _parse_positive, "points": _parse_points}


def cmd_figure(args) -> int:
    entries = _read_key_values(Path(args.config)) if args.config is not None else {}
    config = _with_flags(_parse_config(entries, _FIGURE_FIELDS, (), "figure"), _FIGURE_FIELDS, args)
    n_values = config.get("n_values", [1, 2, 3, 4])

    # every panel is sampled (and its window checked) before anything is written
    samples = [crystal_figure_samples(n, config.get("alpha_a", 1.0), config.get("points", 2001)) for n in n_values]
    out_dir = Path(args.out) if args.out else Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    for n, (zs, vals) in zip(n_values, samples):
        target = out_dir / f"crystal_psi_N{n}.csv"
        _emit_csv("z,psi", np.column_stack((zs, vals)), target, sys.stdout)
        print(f"wrote {target}")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args) -> int:
    report = run_verification(args.depth)
    print(report.format_table())
    return 0 if report.all_passed else 2


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_cell_name(n: int, alpha: float, a: float) -> str:
    return f"sweep cell N={n}, alpha={_fmt(alpha)}, a={_fmt(a)}"


def _sweep_cell(cell: tuple[int, float, float], units: UnitSystem) -> tuple:
    """One cell's crystal, the start of its row (N, alpha, a, the closed forms) and its problem."""
    n, alpha, a = cell
    p = CrystalParams(n, alpha, a, units)
    closed = (
        closedform.ground_energy(p),
        closedform.log_normalization_constant(p),
        closedform.expectation_potential(p),
        closedform.expectation_kinetic(p),
    )
    return p, (*cell, *closed), to_quantum(solve_sheets(p.to_sheet_array(), units), units)


def _sweep_row(p: CrystalParams, start: tuple, problem: DeltaPotentialProblem, found: oracle.BoundStateList) -> tuple:
    """The cell's whole CSV row, once the oracle has answered for its ground state."""
    n, alpha, a, energy, _, u_mean, t_mean = start
    if not found.states:
        raise NoBoundStatesError(
            f"{_sweep_cell_name(n, alpha, a)}: the solver finds no bound state in its search range"
        )
    state = found.states[0]
    try:
        psi = state.wavefunction
    except ValueError as exc:  # every coefficient of the state underflowed
        raise ValueError(f"{_sweep_cell_name(n, alpha, a)}, the oracle's ground state: {exc}") from None
    resid = nan_max(
        abs(energy - state.energy),
        abs(u_mean - oracle.expectation_potential_numeric(psi, problem)),
        abs(t_mean - oracle.expectation_kinetic_numeric(psi, problem.units)),
        abs(closedform.psi(p, 0.0) - psi.value(0.0)),
    )
    return (*start, found.state_count, resid)


SWEEP_RESIDUAL_MAX = 1e-9  # a larger (or NaN) closed_vs_oracle_resid is a warning line on stderr
_SWEEP_FIELDS = {"N": _parse_int_list, "alpha": _parse_float_list, "a": _parse_float_list, "out": _parse_path}


def cmd_sweep(args) -> int:
    entries = _read_key_values(Path(args.config))
    config = _with_flags(_parse_config(entries, _SWEEP_FIELDS, ("N", "alpha", "a"), "sweep"), _SWEEP_FIELDS, args)
    units = _load_units(args.units)

    # every cell's closed forms and problem, in grid order, then one certificate pass for
    # all at the closed form's ground decay rate m*alpha/hbar^2, and one search for the
    # cells it does not certify
    cells = [(n, alpha, a) for n in config["N"] for alpha in config["alpha"] for a in config["a"]]
    params, starts, problems = zip(*(_sweep_cell(cell, units) for cell in cells))
    found = oracle.certify_ground_states(problems, [p.decay_rate for p in params])
    searched = [k for k, answer in enumerate(found) if not answer.states]
    if searched:
        for k, answer in zip(searched, oracle.find_bound_states([problems[k] for k in searched], lowest=1)):
            found[k] = answer
    rows = list(map(_sweep_row, params, starts, problems, found))

    _emit_csv("N,alpha,a,E,log_A,U_exp,T_exp,count,closed_vs_oracle_resid", np.array(rows, dtype=float),
              config.get("out"), sys.stdout)
    _warn([
        *(f"{_sweep_cell_name(*cells[k])}: the oracle does not certify the closed form's ground state at "
          f"kappa = {_fmt(params[k].decay_rate)}; its row is the search's" for k in searched),
        *(f"{_sweep_cell_name(*cell)}: closed_vs_oracle_resid = {_fmt(row[-1])} is not within {SWEEP_RESIDUAL_MAX:g}"
          for cell, row in zip(cells, rows) if not row[-1] <= SWEEP_RESIDUAL_MAX),
    ])
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

@functools.cache  # built once per process: parse_args does not change the parser
def build_parser() -> _Parser:
    parser = _Parser(prog="sheetcrystal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one configuration, emit CSV + summary")
    solve.add_argument("--config", required=True, help="scenario config file")
    solve.add_argument("--units", help="units file with hbar, mass, eps0, V0, a0")
    solve.add_argument("--out", help="CSV output path (default: stdout)")
    solve.add_argument("--window", help="sampling window, e.g. --window=-5,5")
    solve.add_argument("--points", help="sample point count (>= 2)")
    solve.set_defaults(func=cmd_solve)

    figure = sub.add_parser("figure", help="emit crystal wavefunction CSV datasets")
    figure.add_argument("--config", help="optional config with n_values / alpha_a / points")
    figure.add_argument("--out", help="output directory (default: .)")
    figure.add_argument("--points", help="sample point count (>= 2)")
    figure.set_defaults(func=cmd_figure)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--depth", choices=("quick", "full"), default="quick")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate closed forms vs the solver over a grid")
    sweep.add_argument("--config", required=True, help="grid config with N / alpha / a")
    sweep.add_argument("--units", help="units file with hbar, mass, eps0, V0, a0")
    sweep.add_argument("--out", help="CSV output path (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SheetCrystalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc} (a result exceeds the float range)", file=sys.stderr)
        return 1
    except MemoryError as exc:  # list(range(...)) raises one with no message
        print(f"error: out of memory: {str(exc) or 'a request is too large to allocate'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
