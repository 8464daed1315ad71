"""The survey dials: one table of mechanisms, and the closed-form cost
constants of the two classic survey designs.

Warner's coin flip, Simmons' unrelated question and Rappor's one-time and
full modes each report every bit truthfully with some effective probability
``a``: :data:`_MECHANISMS` names each one's fields and the ``a`` they fix, a
:class:`Mechanism` is one name from that table with its parameters, and
:func:`parse_mechanism` reads the ``name:value,...`` specs the CLI takes.
This module imports neither numpy nor dataclasses (which loads inspect), so
the argument parser can list the specs in its help without loading them.

Both classic designs reduce to bit-flip channels, so each has a cost constant
c in its own dial p; comparing them parameter-by-parameter is what
practitioners historically did, and figure 2a reproduces that comparison.
The punchline lives in the privacy module: at equal privacy budget the two
constants coincide, so the parameter-indexed preference order is an artifact
of the dials, not a real difference.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import SingularChannelError, check_count, check_invertible, check_probability


def _symmetric_p(f: float, q: float, p: float) -> None:
    # absolute tolerance: 0.3 and 1 - 0.7 differ by one ulp
    if not math.isclose(p, 1.0 - q, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(
            f"asymmetric instantaneous stage (p={p}, q={q}) is not "
            "a bit-flip channel; only the symmetric mode p = 1 - q is supported"
        )


# The family's dials, the one table of them: each name maps to its fields in
# spec order, the effective a they fix, and the keys a spec may give besides
# its fields, each with the check its value must pass.
_MECHANISMS = {
    # report each bit truthfully with probability a, flipped otherwise
    "direct": (("a",), lambda a: a, {}),
    # Warner's coin flip: answer the real question truthfully with
    # probability p, otherwise answer its negation
    "warner": (("p",), lambda p: p, {}),
    # Simmons' unrelated question: with probability p answer a fair coin
    # instead; truthful unless the coin both fires and disagrees
    "unrelated": (("p",), lambda p: (2.0 - p) / 2.0, {}),
    # Rappor's permanent stage alone: each bit is kept with probability 1 - f,
    # else replaced by a fair coin
    "rappor1": (("f",), lambda f: (2.0 - f) / 2.0, {}),
    # Rappor's permanent stage (noise f), then the instantaneous stage: report
    # 1 with probability q for a memoized 1 and p for a 0.  Only the symmetric
    # mode p = 1 - q composes into one bit-flip channel, so p is no field; a
    # spec may give it, and it is refused unless it equals 1 - q.  The two
    # symmetric flips compose to a = q - (q - 1/2) f.
    "rappor": (("f", "q"), lambda f, q: q - (q - 0.5) * f, {"p": _symmetric_p}),
}


def _entry(name: str) -> tuple:
    if name not in _MECHANISMS:
        known = ", ".join(sorted(_MECHANISMS))
        raise ValueError(f"unknown mechanism {name!r}; expected one of: {known}")
    return _MECHANISMS[name]


class Mechanism(namedtuple("Mechanism", "name params")):
    """One dial of the family: a mechanism of :data:`_MECHANISMS` and its
    parameters, floats in [0, 1] in the table's field order, checked however
    it is built (``_make``, ``_replace``, copy and pickle call ``__new__``)."""

    __slots__ = ()

    def __new__(cls, name: str, params: tuple[float, ...]):
        fields, params = _entry(name)[0], tuple(params)
        if len(params) != len(fields):
            raise ValueError(
                f"mechanism {name!r} takes {len(fields)} parameter(s) "
                f"({', '.join(fields)}), got {len(params)}"
            )
        checked = tuple(float(check_probability(v, f)) for f, v in zip(fields, params))
        return super().__new__(cls, name, checked)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def effective_a(spec: Mechanism) -> float:
    """Truth probability per bit of the equivalent single-flip channel."""
    return _MECHANISMS[spec.name][1](*spec.params)


def _number(name: str, field: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"mechanism {name!r} field {field} must be a number, got {text!r}") from None


def parse_mechanism(text: str) -> Mechanism:
    """Parse ``name:value,...`` (the values in field order) or
    ``name:key=value,...`` for a mechanism of :data:`_MECHANISMS`;
    :func:`~bisymrr.corpus_io.mechanism_text` writes this form, and every
    value that is no number is refused with the mechanism and field it was
    given for; anything but a string is refused with the forms it may take.
    """
    if not isinstance(text, str):
        raise ValueError(f"mechanism must be a spec, one of {mechanism_forms()}, got {text!r}")
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    fields, _, extra = _entry(name)
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if not any("=" in p for p in parts):
        # values past the fields stay text: Mechanism refuses their count first
        numbers = tuple(_number(name, f, p) for f, p in zip(fields, parts))
        return Mechanism(name, numbers + tuple(parts[len(fields):]))
    values = {}
    for part in parts:
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or (key not in fields and key not in extra):
            raise ValueError(
                f"mechanism {name!r} takes {', '.join(fields)}, in that order or as "
                f"key=value pairs; got {part!r}"
            )
        if key in values:
            raise ValueError(f"mechanism {name!r} got key {key!r} twice")
        values[key] = _number(name, key, value)
    spec = Mechanism(name, tuple(values[f] for f in fields if f in values))
    for key, check in extra.items():
        if key in values:
            check(*spec.params, values[key])
    return spec


def _spec_text(name: str, values: list[str]) -> str:
    fields = _MECHANISMS[name][0]
    if len(fields) == 1:
        return f"{name}:{values[0]}"
    return f"{name}:" + ",".join(f"{f}={v}" for f, v in zip(fields, values))


def mechanism_forms() -> str:
    """Every mechanism's spec with placeholders: ``direct:<a>, ...,
    rappor:f=<f>,q=<q>``."""
    return ", ".join(
        _spec_text(name, [f"<{f}>" for f in fields]) for name, (fields, *_) in _MECHANISMS.items()
    )


def unrelated_c(p: float, n: int) -> float:
    """Cost constant of the unrelated-question design at dial p:
    ((p^2 - 2p + 2) / (2 (p - 1)^2))^n, the channel constant at a = (2-p)/2."""
    check_probability(p, "p")
    if p == 1.0:
        raise SingularChannelError(
            "p = 1 always answers the coin (a = 1/2); the cost diverges"
        )
    n = check_count(n, "bit width")
    return ((p * p - 2.0 * p + 2.0) / (2.0 * (p - 1.0) ** 2)) ** n


def warner_c(p: float, n: int) -> float:
    """Cost constant of the coin-flip design at dial p:
    ((2p^2 - 2p + 1) / (2p - 1)^2)^n, the channel constant at a = p."""
    check_probability(p, "p")
    check_invertible(p, "p")
    n = check_count(n, "bit width")
    return ((2.0 * p * p - 2.0 * p + 1.0) / (2.0 * p - 1.0) ** 2) ** n

