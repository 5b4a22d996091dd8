"""Weyl operators, characteristic and Wigner functions.

Phase points x = (p, q) live in Z_d^{2n}.  Phase-space functions are
indexed by the flat index of the digit row (p, q) (see `gf.flat_index`),
i.e. index = int(p, base d) * d^n + int(q, base d).

Every Weyl expansion comes from the rows of a characteristic function and
`symplectic_fourier`.  Row q of c_B is one DFT over b of the q-shifted
diagonal B[b + q, b] times a phase; for a pure state that diagonal is a
gather psi[b + q] conj(psi[b]), so no outer product is formed, and rows
come in blocks of bounded size (`_char_rows`), so a sum over c_psi can be
taken block by block.  The (shift, phase) index tables of a row block
depend only on (n, d): where all d^n rows fit one block, d^{2n} 16 B <=
_ROW_BLOCK_BYTES (up to 8 qubits, 5 qutrits or 3 ququints), they are
built once per size and kept read-only in a small cache; larger states
build them block by block on every call.  Every transform is one
digit-block DFT (`_digit_dft`): GEMMs against the DFT matrix of a few digits at a time.
`weyl_action` is the one home of the Weyl formula: W_x as a permutation of
basis states times phases, which callers gather through.  Nothing here
builds a Weyl matrix or stacks operators.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .gf import all_vectors, flat_index

DEFAULT_DIM_CAP = 2**13

# the DFT of Z_d^k works on blocks of c digits with d^c <= _DFT_BLOCK
_DFT_BLOCK = 16
# bytes of one block of characteristic-function rows; a block's gathers
# and DFT scratch take a small multiple of it
_ROW_BLOCK_BYTES = 2**20


class ResourceCapError(RuntimeError):
    pass


def freeze(a: np.ndarray) -> np.ndarray:
    """Make `a` read-only, so a cached result cannot be edited in place."""
    a.setflags(write=False)
    return a


def check_dim(dim: int):
    """Raise ResourceCapError if dim exceeds the cap.

    The cap is STABKIT_DIM_CAP, read on every call, or DEFAULT_DIM_CAP.
    """
    cap = int(os.environ.get("STABKIT_DIM_CAP", DEFAULT_DIM_CAP))
    if dim > cap:
        raise ResourceCapError(f"requested operator dimension {dim} exceeds cap {cap}")


def square_side(entries: int) -> int:
    """Side of the smallest square operator with at least `entries` entries,
    the dimension `check_dim` is given for a table that is not square."""
    return math.isqrt(entries - 1) + 1 if entries else 0


def capped_cache(dim, maxsize: int | None = 16):
    """lru_cache that runs check_dim(dim(*args)) before every lookup.

    A cached result is returned only while the cap allows it.  The wrapper
    keeps `cache_info` and `cache_clear` of the underlying cache.
    """

    def wrap(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            check_dim(dim(*args, **kwargs))
            return cached(*args, **kwargs)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return wrap


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def phase_points(n: int, d: int) -> np.ndarray:
    """All d^{2n} points (p, q), in flat index order."""
    return all_vectors(2 * n, d)


def point_index(x, n: int, d: int) -> int:
    return int(flat_index(np.asarray(x, dtype=np.int64) % d, d))


def linear_index_map(O: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """perm with |x> -> |O x> per base-d layer, for x in (Z_d^n)^t.

    perm[i] is the flat index of O x for the x of flat index i; O acts on the
    t blocks of n digits.  d is the alphabet size and need not be prime when
    O is a permutation matrix.
    """
    X = all_vectors(t * n, d).reshape(-1, t, n)
    Y = np.einsum("kj,xjl->xkl", np.asarray(O) % d, X) % d
    return flat_index(Y.reshape(-1, t * n), d)


@functools.lru_cache(maxsize=16)
def _digit_table(n: int, d: int) -> np.ndarray:
    """all_vectors(n, d), read-only."""
    return freeze(all_vectors(n, d))


@functools.lru_cache(maxsize=None)
def _tau_powers(d: int) -> np.ndarray:
    """tau^k = e^{i pi k / d} for k in Z_{2d}, read-only."""
    return freeze(np.exp(1j * np.pi * np.arange(2 * d) / d))


def weyl_action(xs, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, phases) with W_x|b> = phases[i, b] |targets[i, b]> for x = xs[i].

    W_x = tau^{-p.q} (X) Z^{p_i} X^{q_i} sends |b> to
    tau^{-p.q} omega^{p.(b+q)} |b+q>; with tau = e^{i pi (d^2+1)/d} and
    omega = tau^2 each phase is e^{i pi k / d}, k reduced mod 2d, read from
    the table of the 2d powers.  xs is one point (p, q) or a stack of them;
    both outputs have shape (len(xs), d^n).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.int64)) % d
    p, q = xs[:, :n], xs[:, n:]
    shifted = (_digit_table(n, d) + q[:, None, :]) % d
    pq = (p * q).sum(axis=1)[:, None]
    k = (2 * (shifted @ p[:, :, None])[:, :, 0] - (d * d + 1) * pq) % (2 * d)
    return flat_index(shifted, d), _tau_powers(d)[k]


def _block_digits(d: int) -> int:
    """Digits per DFT block: the most c with d^c <= _DFT_BLOCK, at least 1."""
    c = 1
    while d ** (c + 1) <= _DFT_BLOCK:
        c += 1
    return c


@functools.lru_cache(maxsize=None)
def _dft_matrix(c: int, d: int) -> np.ndarray:
    """F[j, l] = omega^{-j.l} for j, l in Z_d^c, read-only."""
    v = all_vectors(c, d)
    return freeze(np.exp(-2j * np.pi * (v @ v.T % d) / d))


def _digit_dft(a, k: int, d: int) -> np.ndarray:
    """(Fa)[..., l] = sum_j omega^{-l.j} a[..., j] over j, l in Z_d^k.

    The DFT of Z_d^k over the last axis of a (length d^k, flat digit
    order), keeping the leading axes.  The digits are transformed a block
    of c at a time (see `_block_digits`): one GEMM against the DFT matrix
    of Z_d^c over the trailing untransformed digits, whose output puts the
    finished block at the front of the digit axes.  Once all k digits are
    done they are back in their original order.
    """
    shape = np.shape(a)
    # `a` is rebound at each step, so a temporary input is freed early
    a = np.asarray(a, dtype=complex).reshape(-1, d**k)
    m, done = len(a), 0
    while done < k:
        c = min(_block_digits(d), k - done)
        rest = d ** (k - c)
        # F is symmetric: out[i, l, r] = sum_j F[l, j] a[i, r, j]
        a = np.matmul(_dft_matrix(c, d), a.reshape(m, rest, d**c).transpose(0, 2, 1))
        a = a.reshape(m, d**k)
        done += c
    return a.reshape(shape)


def _digit_sum(tables: np.ndarray) -> np.ndarray:
    """out[i, b] = sum_j tables[j, i, b_j] for b in Z_d^n, in flat order.

    tables has shape (n, rows, d).  out is built one digit at a time from
    the last, each new digit the most significant, so that the inner loop
    of every sum runs over the digits already placed.
    """
    out = np.zeros((tables.shape[1], 1), dtype=tables.dtype)
    for t in tables[::-1]:
        out = (t[:, :, None] + out[:, None, :]).reshape(len(out), -1)
    return out


def _row_tables(qs: np.ndarray, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(shift, phase) for the rows q in qs (digit rows, shape (m, n)).

    shift[i, b] is the flat index of b + q_i and phase[i, p] is
    tau^{-(d^2 + 1) p.q_i}; the exponent is taken mod 2d by the lookup.
    """
    digit = np.arange(d)
    place = (d ** np.arange(n - 1, -1, -1, dtype=np.int64))[:, None, None]
    tau_powers = np.exp(-1j * np.pi * np.arange(2 * d) / d)
    qs = qs.T[:, :, None]
    return (_digit_sum((qs + digit) % d * place),
            np.take(tau_powers, _digit_sum((d * d + 1) * qs * digit), mode="wrap"))


@functools.lru_cache(maxsize=8)
def _one_block_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """`_row_tables` of all d^n rows, read-only; only for sizes whose rows
    fit one block, so an entry holds at most 1.5 _ROW_BLOCK_BYTES."""
    return tuple(freeze(t) for t in _row_tables(_digit_table(n, d), n, d))


def _char_rows(diagonals, n: int, d: int):
    """Yield (q0, rows) with rows[i, p] = c(p, q0 + i), over blocks of q.

    diagonals(shift) returns d^{-n/2} B[shift[i, b], b] for the q-shifted
    index shift[i, b] = flat index of b + q_i.  Row q of c_B is a DFT over
    b of that diagonal times tau^{-p.q}, tau = e^{i pi (d^2+1)/d}.  Each
    block holds at most _ROW_BLOCK_BYTES of rows (at least one row); the
    tables of a single block are cached (see the module docstring).
    """
    dim = d**n
    step = max(1, _ROW_BLOCK_BYTES // (16 * dim))
    if step >= dim:
        blocks = [(0, _one_block_tables(n, d))]
    else:
        qdigits = _digit_table(n, d)
        blocks = ((q0, _row_tables(qdigits[q0 : q0 + step], n, d)) for q0 in range(0, dim, step))
    for q0, (shift, phase) in blocks:
        rows = _digit_dft(diagonals(shift), n, d)
        rows *= phase
        yield q0, rows


def _stack_rows(blocks, n: int, d: int) -> np.ndarray:
    """The flat phase-space array c[(p, q)] from the row blocks of `_char_rows`."""
    c = np.empty((d**n, d**n), dtype=complex)
    for q0, rows in blocks:
        c[:, q0 : q0 + len(rows)] = rows.T
    return c.reshape(-1)


def _pure_char_rows(psi: np.ndarray, n: int, d: int):
    """`_char_rows` of B = |psi><psi|: the diagonals psi[b + q] conj(psi[b]).

    The stream holds the state and row blocks of at most _ROW_BLOCK_BYTES,
    so the cap is checked here, before any row is made, for the d^n
    entries of the state as a square; callers that stack the rows into
    the d^n x d^n table check its side themselves (`_pure_char`).
    """
    check_dim(square_side(d**n))
    psi = np.asarray(psi, dtype=complex)
    scaled = psi.conj() * d ** (-n / 2)

    def diagonals(shift):
        diag = psi[shift]
        diag *= scaled
        return diag

    return _char_rows(diagonals, n, d)


def _pure_char(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_psi as a complex flat array; the cap guards its d^n x d^n table."""
    check_dim(d**n)
    return _stack_rows(_pure_char_rows(psi, n, d), n, d)


def _unit_state(psi) -> np.ndarray:
    """psi as a complex vector; ValueError unless it has norm 1."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    return psi


def characteristic_function(B: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_B(x) = d^{-n/2} tr[W_x^dag B], as a complex flat array.

    With W_x|b> = tau^{-p.q} omega^{p.(b+q)} |b+q> and tau^2 = omega,
    c_B(p, q) = d^{-n/2} tau^{-p.q} sum_b omega^{-p.b} B[b+q, b]: gather the
    q-shifted diagonals of B and take one DFT over the n digits of b.
    """
    check_dim(d**n)
    B = np.asarray(B, dtype=complex) * d ** (-n / 2)
    cols = np.arange(d**n)
    return _stack_rows(_char_rows(lambda shift: B[shift, cols], n, d), n, d)


def symplectic_fourier(f: np.ndarray, n: int, d: int) -> np.ndarray:
    """(Ff)(x) = sum_y omega^{-[x, y]} f(y), along axis 0 of f.

    One DFT over the 2n digits of y gives g(k) = sum_y omega^{-k.y} f(y);
    since [x, y] = p.q' - q.p', (Ff)(p, q) = g(-q, p).
    """
    f = np.asarray(f)
    g = _digit_dft(f.reshape(d ** (2 * n), -1).T, 2 * n, d)
    g = g.reshape(-1, d**n, d**n)
    neg = flat_index(-all_vectors(n, d) % d, d)
    return g[:, neg].swapaxes(1, 2).reshape(-1, d ** (2 * n)).T.reshape(f.shape)


def char_distribution(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """p_psi(x) = |c_psi(x)|^2 = |<psi|W_x|psi>|^2 / d^n for a pure state vector psi."""
    return np.abs(_pure_char(_unit_state(psi), n, d)) ** 2


def wigner_state(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """w_psi(x) = d^{-n} <psi|A_x|psi> = d^{-3n/2} Re (F c_psi)(x)."""
    return _char_wigner(_pure_char(_unit_state(psi), n, d), n, d)


def _char_wigner(c: np.ndarray, n: int, d: int) -> np.ndarray:
    """w_psi from c_psi: d^{-3n/2} Re (F c_psi)."""
    return symplectic_fourier(c, n, d).real * d ** (-1.5 * n)


def kron_power_rows(vs: np.ndarray, k: int) -> np.ndarray:
    """Row i is vs[i]^{(x) k}, with a hard cap on the row dimension."""
    vs = np.atleast_2d(vs)
    m, dim = vs.shape
    check_dim(dim**k)
    out = np.ones((m, 1), dtype=complex)
    for _ in range(k):
        out = (out[:, :, None] * vs[:, None, :]).reshape(m, -1)
    return out


def kron_power_vec(v: np.ndarray, k: int) -> np.ndarray:
    """v^{(x) k}; the cap guards its dim^k entries as a square of as many."""
    check_dim(square_side(np.size(v) ** k))
    return functools.reduce(np.multiply.outer, [np.ravel(v)] * k, np.ones((), complex)).ravel()
