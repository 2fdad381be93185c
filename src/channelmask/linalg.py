"""Dense complex linear algebra for small operator problems.

Everything here works on plain numpy arrays at desk scale (dimensions up to
a few dozen): partial traces over a bipartite split, a deterministic phase
convention for eigenvector columns, commutator norms, and simultaneous
diagonalization of commuting unitaries.
All functions are pure; the only randomness (the coefficient draws inside
:func:`simultaneous_eigenbasis`) is driven by an explicit seed.  The draws are
numpy's PCG64 stream seeded through ``SeedSequence``, computed here without
``numpy.random`` and checked against it in ``tests/test_linalg.py``.
:func:`record` makes the package's frozen value classes.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

#: Decision-level tolerance: separates "equal" from "different" in verdicts.
DECISION_TOL = 1e-8
#: Verification-level tolerance: absorbs round-off accumulated in composites.
VERIFY_TOL = 1e-9
#: Eigenphases closer than this (radians) count as one eigenspace.
PHASE_GAP = 1e-8

# Entries below this modulus are ignored when fixing eigenvector phases.
_PHASE_FLOOR = 1e-8

_MAX_COMBINATION_DRAWS = 8


# -- frozen value classes ----------------------------------------------------------
#
# What ``@dataclass(frozen=True)`` gives, from methods written once: the
# dataclass decorator compiles generated source for every class, about 1 ms
# each, and every command is a fresh process that defines them all.

_set = object.__setattr__


def _values(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__match_args__)


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.__match_args__)})"


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__qualname__}")


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    # The general case of a record's __init__: the fields after the positional
    # arguments come from the keywords, else the defaults.
    values, missing = list(args), []
    for name in names[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in defaults:
            values.append(defaults[name])
        else:
            missing.append(name)
    if kwargs:
        name = next(iter(kwargs))
        raise TypeError(f"{cls.__qualname__}() got "
                        + (f"multiple values for argument {name!r}" if name in names else
                           f"an unexpected keyword argument {name!r}"))
    if missing:
        raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(map(repr, missing))}")
    if len(args) > len(names):
        raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional arguments but {len(args)} were given")
    return values


def record(cls):
    """Make ``cls`` a frozen value class of the fields it annotates, in order, as ``@dataclass(frozen=True)`` would.

    Its ``__init__`` takes the fields by position or keyword, with the class
    attribute of a field's name as its default, sets them and then calls
    ``__post_init__`` when the class has one.  Instances compare and hash as
    the tuple of their fields (never equal to an instance of another class),
    print as ``Name(field=value, ...)``, and refuse assignment and deletion
    with ``AttributeError``.  ``__match_args__`` is the tuple of field names.
    A method the class defines itself is kept.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(names):
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    methods = {"__init__": __init__, "__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
               "__setattr__": _frozen, "__delattr__": _frozen, "__match_args__": names}
    for attr, method in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, method)
    return cls


@record
class BipartiteDims:
    """Factor dimensions of a bipartite space ``A (x) B``."""

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        try:  # stored as Python ints, which a masker file writes and reads back
            _set(self, "dim_a", operator.index(self.dim_a))
            _set(self, "dim_b", operator.index(self.dim_b))
        except TypeError:
            raise ValueError(f"factor dimensions must be integers, got {self.dim_a!r} and {self.dim_b!r}") from None
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("factor dimensions must be at least 1")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b


def as_complex_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce ``m`` to a 2-d complex array, rejecting non-finite entries.

    With ``stack``, any leading axes are kept: ``m`` is a stack of matrices
    in its last two axes.
    """
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def partial_trace(m, dims: BipartiteDims, side: str) -> np.ndarray:
    """Trace out one factor of an operator, or of each in a stack ``(..., n, n)``, on a bipartite space.

    ``side`` names the subsystem that is discarded: ``"A"`` returns the
    operator left on B, ``"B"`` the operator left on A.  Each matrix of a
    stack gives the bits of its own 2-d call.
    """
    arr = as_complex_matrix(m, "m", stack=True)
    if arr.shape[-2] != arr.shape[-1]:
        raise ValueError("partial trace needs a square matrix")
    if arr.shape[-1] != dims.total:
        raise ValueError(
            f"matrix size {arr.shape[-1]} does not match factors "
            f"{dims.dim_a} x {dims.dim_b}"
        )
    four = arr.reshape(*arr.shape[:-2], dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    if side == "A":
        return np.trace(four, axis1=-4, axis2=-2)
    if side == "B":
        return np.trace(four, axis1=-3, axis2=-1)
    raise ValueError("side must be 'A' or 'B'")


def fix_column_phases(m) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real positive."""
    out = np.array(m, dtype=complex, copy=True)
    big = np.abs(out) > _PHASE_FLOOR
    cols = np.flatnonzero(big.any(axis=0))
    pivots = out[big.argmax(axis=0)[cols], cols]
    # Bit for bit the scalar abs(pivot) / pivot times each column: hypot is
    # abs to the bit (np.abs is not), and each column meets its scale as a scalar.
    out[:, cols] = (out[:, cols].T * (np.hypot(pivots.real, pivots.imag) / pivots)[:, None]).T
    return out


def commutator_norm(a, b) -> float:
    """Frobenius norm of the commutator ``ab - ba``."""
    ma = as_complex_matrix(a, "a")
    mb = as_complex_matrix(b, "b")
    if ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        raise ValueError("operands must be square matrices of equal dimension")
    return float(np.linalg.norm(ma @ mb - mb @ ma))


def isometry_defects(stack: np.ndarray) -> np.ndarray:
    """``|M^dag M - 1|`` (Frobenius) of each ``M`` of a stack ``(..., r, c)``, with the bits of ``M[None]`` alone.

    The one unitarity and isometry rule: callers accept only ``defect <= bound``, which refuses the NaN or inf
    of an overflowing Gram matrix, computed without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]), axis=(-2, -1))


def is_isometry(m, tol: float) -> bool:
    """True iff ``m.conj().T @ m`` equals the identity within ``tol`` (Frobenius, :func:`isometry_defects`)."""
    return bool(isometry_defects(as_complex_matrix(m, "m")[None])[0] <= tol)


def _offdiagonal_masses(ws, basis: np.ndarray) -> np.ndarray:
    d = basis.conj().T @ ws @ basis
    return np.linalg.norm(d - d * np.eye(basis.shape[1]), axis=(1, 2))


def _diagonalizes_all(ws, basis: np.ndarray, tol: float) -> bool:
    return bool(np.all(_offdiagonal_masses(ws, basis) <= tol * basis.shape[0]))


def _runs(values: np.ndarray) -> list[np.ndarray]:
    # Index arrays of the runs of ascending values that no step of more than
    # PHASE_GAP breaks.  Index arrays, not views: a column slice of the
    # eigenvectors would change the bits of the products taken from it.
    return np.split(np.arange(values.size), np.flatnonzero(np.diff(values) > PHASE_GAP) + 1)


def _phase_clusters(block: np.ndarray):
    # Bases of the eigenphase clusters of a normal matrix: the joint clusters
    # of its commuting Hermitian (cos) and anti-Hermitian (sin) parts.  eigh's
    # values ascend in [-1, 1], so a run never wraps around.
    cos, vectors = np.linalg.eigh((block + block.conj().T) / 2)
    for idx in _runs(cos):
        sub = vectors[:, idx]
        sin, inner = np.linalg.eigh(sub.conj().T @ ((block - block.conj().T) / 2j) @ sub)
        for jdx in _runs(sin):
            yield sub @ inner[:, jdx]


def _refine_subspaces(ws: list[np.ndarray], cols: np.ndarray) -> np.ndarray:
    # cols spans a subspace invariant under every w; peel one unitary at a
    # time, splitting by eigenphase cluster and recursing on the rest.
    if not ws:
        return cols
    block = cols.conj().T @ ws[0] @ cols
    return np.hstack([_refine_subspaces(ws[1:], cols @ piece) for piece in _phase_clusters(block)])


def _canonical_basis(ws, basis: np.ndarray) -> np.ndarray:
    # Sort columns by the tuple of clustered eigenphases across the family, so
    # the order does not depend on the combination drawn, and fix their phases.
    # Eigenphases within PHASE_GAP of a neighbour share a cluster, which ranks
    # by its position among the sorted phases.  The diagonals come from
    # einsum, not a matmul, whose round-off can move a lone eigenphase at +-pi
    # from the last column to the first.
    phases = np.angle(np.einsum("ji,njk,ki->ni", basis.conj(), ws, basis))
    order = np.argsort(phases, axis=1, kind="stable")
    s = np.take_along_axis(phases, order, axis=1)
    rank = np.cumsum(np.diff(s, axis=1, prepend=s[:, :1]) > PHASE_GAP, axis=1)
    top = rank[:, -1]
    for i in np.flatnonzero((top > 0) & (s[:, 0] + 2 * np.pi - s[:, -1] <= PHASE_GAP)):
        # The last cluster joins the first across +-pi.  The merged cluster,
        # last cluster's members first, ranks last if the angle of its mean is
        # positive and first otherwise.
        last, first = rank[i] == top[i], rank[i] == 0
        mean = np.exp(1j * np.concatenate((s[i, last], s[i, first])))[None].mean(axis=1)[0]
        if np.angle(mean) > 0:
            rank[i, first] = top[i]
        else:
            rank[i, last] = 0
    keys = np.empty_like(rank)
    np.put_along_axis(keys, order, rank, axis=1)
    return fix_column_phases(basis[:, np.lexsort(keys[::-1])])


class NoCommonBasisError(ValueError):
    """No basis diagonalizes every member; ``residual`` is the largest off-diagonal mass left by refinement."""

    def __init__(self, residual: float) -> None:
        super().__init__("no basis diagonalizes every member within tolerance")
        self.residual = residual


def _check_unitary(stack: np.ndarray) -> np.ndarray:
    # A fixed bound, not tol: gates are unitary within 1e-10, so a relative
    # gate U_i^dag U_j is within about 2e-10.
    off = ~(isometry_defects(stack) <= 1e-9)
    if off.any():
        raise ValueError(f"ws[{off.argmax()}] is not unitary within 1e-9")
    return stack


def _hermitian_combination(ws: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``sum_n alpha_n (W_n + W_n^dag) + (beta_n i) (W_n - W_n^dag)`` over the rows ``(alpha_n, beta_n)``
    of ``coefficients``, added one member at a time starting from zero.

    The order fixes the bits of ``h``, and so the certificate: ``accumulate``
    adds in member order at every shape (``sum`` may add pairwise), and
    ``+ 0.0`` turns a sum of ``-0.0`` terms into the ``+0.0`` that starting
    from zero gives.
    """
    adjoints = ws.conj().swapaxes(1, 2)
    terms = coefficients[:, :1, None] * (ws + adjoints) + (coefficients[:, 1:, None] * 1j) * (ws - adjoints)
    return np.add.accumulate(terms)[-1] + 0.0


# -- the combination draws: numpy's PCG64 stream -----------------------------------
#
# The bits of ``np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, 2))``,
# draw after draw, without importing ``numpy.random`` (and ``secrets``,
# ``hashlib`` and OpenSSL with it) in every gate command: ``SeedSequence``'s
# hash mix into a pool of four 32-bit words, PCG64's 128-bit LCG with XSL-RR
# output (O'Neill, HMC-CS-2014-0905), and ``uniform``'s
# ``low + (high - low) * ((x >> 11) * 2**-53)``.  NumPy keeps bit-generator
# streams stable across releases but not ``Generator`` methods (NEP 19), so
# certificates no longer depend on numpy's ``uniform``.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, multiplier: int):
    """``SeedSequence``'s ``hashmix``: xor in the running constant, step it, multiply by it."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


@functools.lru_cache(maxsize=64)  # seeding costs about 20 us, more than a draw of a few members
def _pcg64_seeded(seed: int) -> tuple[int, int]:
    """``(state, increment)`` of ``PCG64(SeedSequence(seed))`` for an int ``seed >= 0``."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]  # little-endian
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, np.uint64): eight words off the cycled pool, paired little-endian
    w = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    # pcg64_set_seed: one step from state 0, add initstate, one more step
    return ((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def _uniform_draws(seed, n: int):
    """``rng.uniform(-1.0, 1.0, size=(n, 2))`` of ``rng = np.random.default_rng(seed)``, once per ``next``."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    state, inc = _pcg64_seeded(seed)
    while True:
        xs = []
        for _ in range(2 * n):
            state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            rot = state >> 122
            xs.append(((x >> rot | x << 64 - rot) & _MASK64) >> 11)
        yield -1.0 + 2.0 * (np.array(xs, dtype=float).reshape(n, 2) * 2.0**-53)


def _combination_bases(ws: np.ndarray, seed: int):
    """For each draw, the eigenbasis of a random Hermitian combination of ``ws``, and
    each member's off-diagonal mass in that basis."""
    coefficients = _uniform_draws(seed, len(ws))
    for _ in range(_MAX_COMBINATION_DRAWS):
        basis = np.linalg.eigh(_hermitian_combination(ws, next(coefficients)))[1]
        yield basis, _offdiagonal_masses(ws, basis)


def simultaneous_eigenbasis(ws, tol: float = DECISION_TOL, seed: int = 0) -> np.ndarray:
    """Orthonormal basis diagonalizing every member of a commuting unitary family.

    A random Hermitian combination of the family members (and their adjoints)
    is diagonalized; for generic coefficients its eigenbasis diagonalizes the
    whole family in one shot.  The result is always verified, which is also
    the only commutation test; degenerate draws are retried with fresh
    coefficients, and if every draw fails the basis is built
    deterministically by recursive eigenspace refinement.  If that fails
    too, :class:`NoCommonBasisError` carries its residual.

    Parameters
    ----------
    ws : sequence of array_like
        Pairwise commuting unitary matrices of a common dimension, each
        unitary within 1e-9 (Frobenius), whatever ``tol`` is.
    tol : float
        Diagonality tolerance, scaled by the dimension.
    seed : int
        Seed for the random combination coefficients, a non-negative integer
        read with ``operator.index``: the draws are those of
        ``np.random.default_rng(seed)``.  ``seed=None`` does not draw OS
        entropy; like a float or a sequence, it raises ``TypeError``.

    Returns
    -------
    np.ndarray
        Unitary matrix whose columns are the common eigenvectors, ordered by
        the clustered eigenphase tuples of the family and phase-fixed.
    """
    mats = [as_complex_matrix(w, f"ws[{i}]") for i, w in enumerate(ws)]
    if not mats:
        raise ValueError("need at least one matrix")
    if any(w.shape != mats[0].shape or w.shape[0] != w.shape[1] for w in mats):
        raise ValueError("all matrices must be square with equal dimension")
    ws = _check_unitary(np.array(mats))
    bound = tol * ws.shape[1]
    basis = next((b for b, masses in _combination_bases(ws, seed) if masses.max() <= bound), None)
    if basis is None:
        basis = _refine_subspaces(list(ws), np.eye(ws.shape[1], dtype=complex))
        residual = float(_offdiagonal_masses(ws, basis).max())
        if not residual <= bound:  # a NaN tol refuses too
            raise NoCommonBasisError(residual)
    return _canonical_basis(ws, basis)
