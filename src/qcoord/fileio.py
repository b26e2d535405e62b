"""Reading and writing the JSON input documents consumed by the CLI.

Three document kinds exist, all versioned with ``"format": 1``:

* game: states_a, states_b, prior_a, prior_b, actions_a, actions_b and a
  payoff array nested as [action_a][action_b][state_a][state_b];
* distribution: label lists s, t, phi, psi and a flat row-major
  ``probabilities`` array over (s, t, phi, psi);
* state: a density matrix as nested rows of [real, imag] pairs.

``ParseError`` covers unreadable or non-JSON input, ``ValidationError``
covers structurally wrong documents and always names the offending field.
JSON types are checked before numpy sees a value: labels are strings, and
numbers are finite JSON numbers (never bools or strings) at their field's
depth.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .games import Game
from .quantum import DensityMatrix
from .signals import JointSignalDistribution

FORMAT_VERSION = 1
# ints read as floats: one too large for a float is inf, never an OverflowError
_DECODER = json.JSONDecoder(parse_int=float)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return doc


def _nested(value, depth: int, test) -> bool:
    """Whether ``value`` is JSON arrays nested exactly ``depth`` deep whose innermost arrays each pass ``test``."""
    if type(value) is not list:
        return False
    if depth == 1:
        return test(value)
    return all(_nested(x, depth - 1, test) for x in value)


def _require(doc: dict, key: str, path, kind: type | None = None, depth: int = 1):
    """Field ``key``; given ``kind``, it must be arrays nested ``depth`` deep of ``kind`` entries.

    Labels are strings, and ``_DECODER`` reads every number as a float and
    true and false as bools, so numbers are floats, and they must be finite:
    the decoder reads NaN and Infinity, and a number beyond the float range
    such as 1e400 as inf.
    """
    if key not in doc:
        raise ValidationError(f"{path}: missing field '{key}'")
    value = doc[key]
    if kind is None:
        return value
    nesting = "an array" if depth == 1 else f"arrays nested {depth} deep"
    if not _nested(value, depth, lambda row: {*map(type, row)} <= {kind}):
        what = "labels (JSON strings)" if kind is str else "numbers"
        raise ValidationError(f"{path}: field '{key}' must be {nesting} of {what}")
    if kind is float and not _nested(value, depth, lambda row: all(map(math.isfinite, row))):
        raise ValidationError(f"{path}: field '{key}' must be {nesting} of finite numbers, "
                              "never NaN, Infinity or beyond the float range")
    return value


def _check_format(doc: dict, path):
    version = _require(doc, "format", path)
    if version != FORMAT_VERSION or type(version) is bool:
        raise ValidationError(f"{path}: field 'format' is {version!r}, expected {FORMAT_VERSION}")


def load_game(path) -> Game:
    doc = _load_json(path)
    _check_format(doc, path)
    fields = {
        "states_a": _require(doc, "states_a", path, str),
        "states_b": _require(doc, "states_b", path, str),
        "prior_a": _require(doc, "prior_a", path, float),
        "prior_b": _require(doc, "prior_b", path, float),
        "actions_a": _require(doc, "actions_a", path, str),
        "actions_b": _require(doc, "actions_b", path, str),
        "payoff": _require(doc, "payoff", path, float, 4),
    }
    try:
        return Game(**fields)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def game_to_dict(game: Game) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "game",
        "states_a": list(game.states_a),
        "states_b": list(game.states_b),
        "prior_a": [float(x) for x in game.prior_a],
        "prior_b": [float(x) for x in game.prior_b],
        "actions_a": list(game.actions_a),
        "actions_b": list(game.actions_b),
        "payoff": game.payoff.tolist(),
    }


# the document field behind each JointSignalDistribution argument
_DISTRIBUTION_FIELDS = {"s_labels": "s", "t_labels": "t", "phi_labels": "phi",
                        "psi_labels": "psi", "table": "probabilities"}


def load_distribution(path) -> JointSignalDistribution:
    doc = _load_json(path)
    _check_format(doc, path)
    args = {arg: _require(doc, key, path, str) for arg, key in _DISTRIBUTION_FIELDS.items() if arg != "table"}
    flat = np.asarray(_require(doc, "probabilities", path, float))
    shape = tuple(map(len, args.values()))
    # an empty label list is the constructor's to name, before any count
    if all(shape):
        if flat.size != math.prod(shape):
            raise ValidationError(
                f"{path}: field 'probabilities' has {flat.size} entries, expected {math.prod(shape)}"
            )
        flat = flat.reshape(shape)
    try:
        return JointSignalDistribution(**args, table=flat)
    except ValidationError as exc:
        # every message of the constructor starts with the argument it blames
        arg, _, reason = str(exc).partition(": ")
        raise ValidationError(f"{path}: field '{_DISTRIBUTION_FIELDS[arg]}': {reason}") from None


def distribution_to_dict(p: JointSignalDistribution) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "distribution",
        "s": list(p.s_labels),
        "t": list(p.t_labels),
        "phi": list(p.phi_labels),
        "psi": list(p.psi_labels),
        "probabilities": [float(x) for x in p.table.reshape(-1)],
    }


def load_state(path) -> DensityMatrix:
    doc = _load_json(path)
    _check_format(doc, path)
    rows = _require(doc, "matrix", path, float, 3)
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: field 'matrix' is malformed: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{path}: field 'matrix' must be square rows of [real, imag] pairs"
        )
    try:
        return DensityMatrix(arr[:, :, 0] + 1j * arr[:, :, 1])
    except ValidationError as exc:
        raise ValidationError(f"{path}: field 'matrix': {exc}") from None


def save_json(doc: dict, path):
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


_PI_TOKEN = re.compile(
    r"^(?P<sign>[+-])?(?P<coef>\d+(?:\.\d*)?|\.\d+)?pi(?:/(?P<den>\d+(?:\.\d*)?|\.\d+))?$"
)


def parse_angle(token: str) -> float:
    """Parse a finite angle in radians: plain floats plus pi fractions like '-3pi/8'."""
    text = token.strip().lower().replace(" ", "")
    if not text:
        raise ParseError("empty angle token")
    try:
        value = float(text)
    except ValueError:
        match = _PI_TOKEN.match(text)
        if not match:
            raise ParseError(f"malformed angle token {token!r}") from None
        value = math.pi * float(match.group("coef") or 1.0)
        if match.group("den"):
            den = float(match.group("den"))
            if den == 0.0:
                raise ParseError(f"zero denominator in angle token {token!r}") from None
            value /= den
        if match.group("sign") == "-":
            value = -value
    if not math.isfinite(value):
        raise ParseError(f"non-finite angle token {token!r}")
    return value


def parse_angle_list(text: str) -> list:
    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ParseError(f"no angles found in {text!r}")
    return [parse_angle(t) for t in tokens]
