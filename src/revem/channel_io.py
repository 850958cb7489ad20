"""Channel file parsing and built-in channel templates.

Formats (all plain text, ``#`` starts a comment):

* classical: CSV with n2 rows x n1 columns, column x = W_x; optional header
  comment ``# n1=<int> n2=<int>``.
* wiretap: CSV with n2*n3 rows x n1 columns, row r encoding
  (z, y) = (r // n3 + 1, r % n3 + 1); mandatory header ``# n1= n2= n3=``.
* cq: mandatory header ``# n1=<int> dim=<int>`` followed by n1 density
  matrices, each as dim rows of 2*dim numbers (real/imaginary pairs).
"""
from __future__ import annotations

import re
from typing import Dict, List, Tuple

import numpy as np

from .classical import Channel
from .cq import CQChannel
from .errors import InvalidChannelError
from .wiretap import WiretapChannel


class ChannelFormatError(InvalidChannelError):
    """Parse or validation failure with a line/column diagnostic."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        place = ""
        if line:
            place = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + place)


def _parse_header(text: str, keys: Tuple[str, ...]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        for key in keys:
            match = re.search(rf"\b{key}\s*=\s*(\d+)", stripped)
            if match:
                out[key] = int(match.group(1))
    return out


def _numeric_rows(text: str) -> List[Tuple[int, List[float]]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = [p for p in re.split(r"[,\s]+", stripped) if p]
        values = []
        for col, part in enumerate(parts, start=1):
            try:
                value = float(part)
            except ValueError as exc:
                raise ChannelFormatError(
                    f"cannot parse {part!r} as a number", lineno, col) from exc
            if not np.isfinite(value):
                raise ChannelFormatError(f"non-finite number {part!r}", lineno, col)
            values.append(value)
        rows.append((lineno, values))
    return rows


def _as_matrix(rows: List[Tuple[int, List[float]]]) -> np.ndarray:
    if not rows:
        raise ChannelFormatError("no numeric rows found")
    width = len(rows[0][1])
    for lineno, values in rows:
        if len(values) != width:
            raise ChannelFormatError(
                f"expected {width} columns, found {len(values)}", lineno)
    return np.asarray([values for _, values in rows], dtype=float)


def _validate_columns(mat: np.ndarray, rows: List[Tuple[int, List[float]]]):
    for x in range(mat.shape[1]):
        col = mat[:, x]
        neg = np.where(col < -1e-12)[0]
        if neg.size:
            raise ChannelFormatError("negative entry", rows[neg[0]][0], x + 1)
        if abs(col.sum() - 1.0) > 1e-9:
            raise ChannelFormatError(
                f"column {x + 1} sums to {col.sum():.12g}, expected 1",
                rows[0][0], x + 1)


def parse_classical(text: str) -> Channel:
    header = _parse_header(text, ("n1", "n2"))
    rows = _numeric_rows(text)
    mat = _as_matrix(rows)
    if header:
        expect = (header.get("n2", mat.shape[0]), header.get("n1", mat.shape[1]))
        if mat.shape != expect:
            raise ChannelFormatError(
                f"header promises shape {expect}, file has {mat.shape}")
    _validate_columns(mat, rows)
    return Channel(mat)


def parse_wiretap(text: str) -> WiretapChannel:
    header = _parse_header(text, ("n1", "n2", "n3"))
    for key in ("n1", "n2", "n3"):
        if key not in header:
            raise ChannelFormatError(f"wiretap header must set {key}=")
    n1, n2, n3 = header["n1"], header["n2"], header["n3"]
    rows = _numeric_rows(text)
    mat = _as_matrix(rows)
    if mat.shape != (n2 * n3, n1):
        raise ChannelFormatError(
            f"expected {n2 * n3} rows x {n1} columns, found {mat.shape}")
    _validate_columns(mat, rows)
    return WiretapChannel(mat.T.reshape(n1, n2, n3))


def parse_cq(text: str) -> CQChannel:
    header = _parse_header(text, ("n1", "dim"))
    for key in ("n1", "dim"):
        if key not in header:
            raise ChannelFormatError(f"cq header must set {key}=")
    n1, dim = header["n1"], header["dim"]
    rows = _numeric_rows(text)
    if len(rows) != n1 * dim:
        raise ChannelFormatError(
            f"expected {n1 * dim} matrix rows, found {len(rows)}")
    states = np.zeros((n1, dim, dim), dtype=complex)
    for idx, (lineno, values) in enumerate(rows):
        if len(values) != 2 * dim:
            raise ChannelFormatError(
                f"expected {2 * dim} numbers (re/im pairs), found {len(values)}",
                lineno)
        row = np.asarray(values[0::2]) + 1.0j * np.asarray(values[1::2])
        states[idx // dim, idx % dim, :] = row
    try:
        return CQChannel(states)
    except InvalidChannelError as exc:
        raise ChannelFormatError(str(exc)) from exc


def format_classical(channel: Channel) -> str:
    lines = [f"# n1={channel.n_inputs} n2={channel.n_outputs}"]
    for row in channel.matrix:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def format_wiretap(channel: WiretapChannel) -> str:
    n1, n2, n3 = channel.n_inputs, channel.n_eve, channel.n_bob
    lines = [f"# n1={n1} n2={n2} n3={n3}"]
    for row in channel.tensor.reshape(n1, -1).T:
        lines.append(",".join(f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def format_cq(channel: CQChannel) -> str:
    lines = [f"# n1={channel.n_inputs} dim={channel.dim}"]
    for idx, state in enumerate(channel.states):
        lines.append(f"# state {idx + 1}")
        for row in state:
            lines.append(" ".join(f"{v.real:.12g} {v.imag:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def bsc(p: float) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise InvalidChannelError("bsc parameter must be in [0, 1]")
    return Channel(np.array([[1 - p, p], [p, 1 - p]]))


def identity_channel(n: int) -> Channel:
    """Noiseless n-ary channel."""
    if n < 1:
        raise InvalidChannelError("identity size must be positive")
    return Channel(np.eye(n))


def chan1(t: float) -> Channel:
    """The 4 x 4 single-parameter example channel used for the figure sweep."""
    if not 0.0 <= t <= 0.9:
        raise InvalidChannelError("chan1 parameter must be in [0, 0.9]")
    cols = np.array([
        [0.05, 0.9 - t, 0.05, t],
        [0.05, 0.05, 0.9 - t, t],
        [0.9, 0.05, 0.05, 0.0],
        [0.05, 0.05, 0.05, 0.85],
    ])
    return Channel(cols.T)


def template(spec: str) -> Channel:
    """Instantiate a built-in template: bsc:<p>, identity:<n>, chan1:<t>."""
    name, _, arg = spec.partition(":")
    try:
        if name == "bsc":
            return bsc(float(arg))
        if name == "identity":
            return identity_channel(int(arg))
        if name == "chan1":
            return chan1(float(arg))
    except ValueError as exc:
        raise InvalidChannelError(f"bad template argument in {spec!r}") from exc
    raise InvalidChannelError(f"unknown template {name!r}")
