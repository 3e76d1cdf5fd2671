"""Worked scenarios: an alert-queue overtime model and small epidemic chains.

Two families of examples exercise the estimation pipeline end to end. The
first is a security-operations alert queue: a birth-death chain runs for one
shift to set the end-of-shift backlog, then an overtime chain (arrivals shut
off, the empty state absorbing) drains it while cost grows with queue length.
The second builds SIR/SVIR per-person chains, costing each person 1 while
infected. A population of N independent, identical persons is the N-fold
Kronecker power of that chain, with k^N joint states; `build_health_chain`
materializes it, but `compare_report(..., population=N)` works on the k x k
per-person chain alone.

`compare_report` ties these to the estimators: given stopping-time samples it
compares the plug-in cost at the rounded mean against the distributionally
robust value, and uses Monte Carlo rollouts to estimate how often either one
is exceeded in realization. The rollouts of all samples step together as
arrays; each sample's seeded substream is drawn in one call beforehand, so the
realized costs are bit-identical to drawing and stepping one sample at a time.
Sample i's substream is numpy's `Generator(PCG64(SeedSequence(entropy=seed,
spawn_key=(i,))))`, but no SeedSequence is built per sample: each block of
samples reads the seed's mixed pool off one `SeedSequence(seed)`, then hashes
in every sample's spawn key, derives the output words and seeds PCG64 as
arrays, computing every stream's start state at once. How the draws follow
depends on the block's longest stream. If no stream is longer than 32 draws
(the packaged SIR/SVIR studies draw at most 16 per stream), draw j of every
stream is computed at once from the PCG64 recurrence, as M^j times the start
state plus (M^(j-1) + ... + 1) times the increment mod 2**128, and no
generator is built. A block with a
longer stream (csoc's streams reach 242 draws) builds one generator, sets each
stream's start state on it and draws it there, which is the cheaper way for
long streams. Both give numpy's draws bit for bit.

Each step is the table-lookup form of inverse-transform sampling. Once per
call, each cumulative column's support band (the rows between its last zero
entry and its total) is padded with the column total to a common width. A
branch-free search of about log2(widest band) halvings finds the walker's
slot, with no bound check per level: a draw at or past the total counts
every slot, so it lands on the last one, which holds the clamp to the last
state. The next state, and for a population the rescale of the draw, are
read off tables at that same slot.

A population rollout still takes one uniform per joint step and decodes it
person by person, in the Kronecker order (person 0 the most significant
digit): the person's next state j is looked up on the per-person cumulative
column F, and the uniform is rescaled to (u - F(j-1)) / (F(j) - F(j-1)) for
the next person, with both bounds read off the band tables. This picks the
same joint state as the dense cumulative column of the Kronecker chain,
except for a draw that falls within the accumulated rounding of a block
boundary (about k^N ulps). The decode is limited by the 53 bits of that one
uniform, as the dense table is: each person's rescale spends -log2 of the
probability of the step it took, about one bit on average for the SIR/SVIR
chains, so beyond a few dozen persons the later ones are no longer resolved
by the draw. Populations in the hundreds
would need a draw per person, which would change every rollout.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLS
from .finite_horizon import CostSequence, cost_sequence_strided
from .markov_gas import _validate_transition
from .matrix_core import as_vector, mat_pow
from .wasserstein import AmbiguitySet, drce_finite


class CsocParams(namedtuple("CsocParams", "arrival_rate service_rate step_seconds queue_cap "
                            "shift_steps analysts overtime_min overtime_max overtime_mean")):
    __slots__ = ()

    def __new__(cls,
                arrival_rate: float = 35.0,     # alerts per hour per analyst queue
                service_rate: float = 34.0,     # alerts per hour
                step_seconds: float = 30.0,
                queue_cap: int = 100,
                shift_steps: int = 960,
                analysts: int = 2,
                overtime_min: int = 1,
                overtime_max: int = 120,
                overtime_mean: int = 61):
        if arrival_rate <= 0 or service_rate <= 0 or step_seconds <= 0:
            raise ValueError("rates and step length must be positive")
        if queue_cap < 1 or shift_steps < 1 or analysts < 1:
            raise ValueError("queue_cap, shift_steps, and analysts must be >= 1")
        if not (1 <= overtime_min <= overtime_mean <= overtime_max):
            raise ValueError("need 1 <= overtime_min <= overtime_mean <= overtime_max")
        steps_per_hour = 3600.0 / step_seconds
        if arrival_rate >= steps_per_hour or service_rate >= steps_per_hour:
            raise ValueError("per-step event probabilities must stay below 1")
        return super().__new__(cls, arrival_rate, service_rate, step_seconds, queue_cap,
                               shift_steps, analysts, overtime_min, overtime_max, overtime_mean)

    @property
    def arrival_prob(self) -> float:
        return self.arrival_rate * self.step_seconds / 3600.0

    @property
    def service_prob(self) -> float:
        return self.service_rate * self.step_seconds / 3600.0


class HealthParams(namedtuple("HealthParams", "model population horizon_min horizon_max "
                              "horizon_mean init")):
    __slots__ = ()

    def __new__(cls,
                model: str = "sir",             # "sir" or "svir"
                population: int = 5,
                horizon_min: int = 1,
                horizon_max: int = 15,
                horizon_mean: int = 8,
                init: tuple[float, ...] | None = None):     # per-person distribution
        if model.lower() not in ("sir", "svir"):
            raise ValueError(f"unknown model {model!r}; expected 'sir' or 'svir'")
        if population < 1:
            raise ValueError("population must be >= 1")
        if not (1 <= horizon_min <= horizon_mean <= horizon_max):
            raise ValueError("need 1 <= horizon_min <= horizon_mean <= horizon_max")
        if init is not None:
            arr = np.asarray(init, dtype=float)
            if arr.ndim != 1 or np.any(arr < 0) or abs(arr.sum() - 1.0) > 1e-9:
                raise ValueError("init must be a probability vector")
        return super().__new__(cls, model, population, horizon_min, horizon_max, horizon_mean,
                               init)


class ComparisonReport(namedtuple("ComparisonReport", "empirical_cost drce_cost "
                                  "pct_exceed_empirical pct_exceed_drce t_hat xi seed")):
    __slots__ = ()

    def __new__(cls, empirical_cost: float, drce_cost: float, pct_exceed_empirical: float,
                pct_exceed_drce: float, t_hat: int, xi: float, seed: int):
        for pct in (pct_exceed_empirical, pct_exceed_drce):
            if not (0.0 <= pct <= 100.0):
                raise ValueError("exceedance percentages must lie in [0, 100]")
        return super().__new__(cls, empirical_cost, drce_cost, pct_exceed_empirical,
                               pct_exceed_drce, t_hat, xi, seed)

    CSV_HEADER = ("empirical_cost,drce_cost,pct_exceed_empirical,"
                  "pct_exceed_drce,t_hat,xi,seed")

    def csv_row(self) -> str:
        return ",".join([
            f"{self.empirical_cost:.12g}", f"{self.drce_cost:.12g}",
            f"{self.pct_exceed_empirical:.12g}", f"{self.pct_exceed_drce:.12g}",
            str(self.t_hat), f"{self.xi:.12g}", str(self.seed),
        ])

    def summary(self) -> str:
        return "\n".join([
            f"plug-in cost at t_hat={self.t_hat}: {self.empirical_cost:.6g}",
            f"robust cost (radius {self.xi:.6g}): {self.drce_cost:.6g}",
            f"rollouts exceeding plug-in: {self.pct_exceed_empirical:.1f}%",
            f"rollouts exceeding robust: {self.pct_exceed_drce:.1f}%",
            f"seed: {self.seed}",
        ])


def _regular_shift_matrix(p: CsocParams) -> np.ndarray:
    """Birth-death chain for the in-shift queue, columns indexed by from-state.

    Per step, one arrival (probability a) and one service completion
    (probability s) may occur independently: net +1 with a(1-s), net -1 with
    s(1-a) when the queue is nonempty, otherwise hold; the ends clamp.
    """
    a, s = p.arrival_prob, p.service_prob
    up, down = a * (1.0 - s), s * (1.0 - a)
    n = p.queue_cap + 1
    m = np.zeros((n, n))
    for i in range(n):
        stay = 1.0
        if i < p.queue_cap:
            m[i + 1, i] = up
            stay -= up
        if i > 0:
            m[i - 1, i] = down
            stay -= down
        m[i, i] = stay
    return m


def build_csoc_overtime(p: CsocParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overtime queue model: returns (M, x0, c) on states {0, ..., queue_cap}.

    x0 is the end-of-shift backlog distribution, obtained by running the
    in-shift chain for shift_steps from an empty queue. During overtime the
    arrival stream is off, so the chain is pure death with the empty state
    absorbing. Cost is 0 at an empty queue, 0.5 for one alert, and climbs
    linearly to 1 at the cap.

    This is a synthetic stand-in built from the documented constants, not the
    paper's CSOC data. With the defaults (35 alerts/h against 34/h served over
    an 8-hour shift) the end-of-shift backlog has mean ~19.8, sd ~13.7 and
    P(empty) ~0.024.
    """
    u = p.queue_cap
    n = u + 1
    regular = _regular_shift_matrix(p)
    e0 = np.zeros(n)
    e0[0] = 1.0
    x0 = mat_pow(regular, p.shift_steps) @ e0

    s = p.service_prob
    m = np.zeros((n, n))
    m[0, 0] = 1.0
    for i in range(1, n):
        m[i - 1, i] = s
        m[i, i] = 1.0 - s

    c = np.zeros(n)
    if u == 1:
        c[1] = 1.0
    else:
        ks = np.arange(1, n)
        c[1:] = 0.5 + 0.5 * (ks - 1) / (u - 1)
    return m, x0, c


_SIR_STATES = ("S", "I", "R")
_SVIR_STATES = ("S", "V", "I", "R")

# columns are from-states; entries are to-state probabilities
_SIR_MATRIX = np.array([
    [0.2, 0.0, 0.1],
    [0.8, 0.5, 0.0],
    [0.0, 0.5, 0.9],
])
_SVIR_MATRIX = np.array([
    [0.1, 0.1, 0.0, 0.1],
    [0.1, 0.9, 0.0, 0.0],
    [0.8, 0.0, 0.5, 0.0],
    [0.0, 0.0, 0.5, 0.9],
])


def person_chain(model: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-person transition matrix, default initial law, and infected index."""
    key = model.lower()
    if key == "sir":
        init = np.array([1.0, 0.0, 0.0])
        return _SIR_MATRIX.copy(), init, _SIR_STATES.index("I")
    if key == "svir":
        init = np.array([0.4, 0.6, 0.0, 0.0])
        return _SVIR_MATRIX.copy(), init, _SVIR_STATES.index("I")
    raise ValueError(f"unknown model {model!r}; expected 'sir' or 'svir'")


def health_person(p: HealthParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One person's chain: returns (M, x0, c) with x0 = p.init (or the
    model's default) and c the infected-state indicator."""
    person, init, i_idx = person_chain(p.model)
    if p.init is not None:
        init = np.asarray(p.init, dtype=float)
        if init.shape[0] != person.shape[0]:
            raise ValueError(f"init must have {person.shape[0]} entries for {p.model}")
    c = np.zeros(person.shape[0])
    c[i_idx] = 1.0
    return person, init, c


def build_health_chain(p: HealthParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint population chain: returns (M, x0, c) with M the Kronecker power
    of the per-person chain and c(state) = number of infected persons.

    The matrix has k^N x k^N dense entries (2 GiB for svir at N = 7);
    `compare_report(*health_person(p), ..., population=N)` gives the same
    report without building it.
    """
    person, init, c_person = health_person(p)
    m = person
    x0 = init
    for _ in range(p.population - 1):
        m = np.kron(m, person)
        x0 = np.kron(x0, init)
    n_states = person.shape[0]
    total = n_states ** p.population
    c = np.zeros(total)
    rem = np.arange(total)
    for _ in range(p.population):
        c += c_person[rem % n_states]
        rem //= n_states
    return m, x0, c


def _checked_seed(seed) -> int:
    """The seed as a Python int; bools count, floats and negatives do not."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return value


def _as_int(value, requirement: str) -> int:
    """value as a Python int; bools and numpy integers count, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{requirement}, got {value}") from None


def sample_horizons(lo: int, hi: int, mean: int, k: int, seed: int) -> list[int]:
    """k i.i.d. stopping times from a discretized triangular law on [lo, hi]
    with mode at mean, reproducible under the seed. Floats are rejected, not truncated."""
    lo, hi, mean, k = (_as_int(value, f"{name} must be an integer")
                       for name, value in (("lo", lo), ("hi", hi), ("mean", mean), ("samples", k)))
    if not (1 <= lo <= mean <= hi):
        raise ValueError("need 1 <= lo <= mean <= hi")
    if k < 1:
        raise ValueError(f"samples must be >= 1, got {k}")
    seed = _checked_seed(seed)
    ts = np.arange(lo, hi + 1)
    weights = np.where(
        ts <= mean,
        (ts - lo + 1.0) / (mean - lo + 1.0),
        (hi - ts + 1.0) / (hi - mean + 1.0),
    )
    weights = weights / weights.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(ts, size=k, p=weights).tolist()


# Samples are rolled out in blocks whose pre-drawn uniforms fill at most about
# 1 MB (a block holds at least one sample, however long).
_ROLLOUT_BLOCK_DRAWS = 1 << 17

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx), its
# pool size, and the multiplier of PCG64's 128-bit LCG step.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_consts(hash_const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The XOR and multiplier constants of `count` successive hashes from
    `hash_const` on, as uint32 arrays: each hash multiplies by the constant
    that the next one XORs with."""
    consts = [hash_const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# generate_state cycles over the pool for 8 uint32 words, hashed from _INIT_B on
_OUT_POOL_INDEX = np.arange(2 * _POOL_SIZE) % _POOL_SIZE
_OUT_XOR, _OUT_MULT = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
_U32_XSHIFT = np.uint32(_XSHIFT)


def _stream_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """`SeedSequence(entropy=seed, spawn_key=(key,)).generate_state(4, np.uint64)`
    for every key at once, as a keys.size x 4 array.

    The entropy is the seed's uint32 words, zero-padded to the pool size, then
    the key (one word: sample indices stay below 2**32). The seed's words do
    not depend on the key, so numpy mixes them once: `SeedSequence(seed).pool`
    is the pool before the key, after 4 hashes per (padded) word. The key's
    round and the output hashing, which numpy has no batched form of, run
    here on keys.size x 4 uint32 arrays, whose products wrap silently.
    """
    pool = np.random.SeedSequence(seed).pool
    hashes = 4 * max(_POOL_SIZE, -(-seed.bit_length() // 32))
    # the key round: column dst mixes pool[dst] with the key's dst-th hash
    key_xor, key_mult = _hash_consts(_INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32,
                                     _MULT_A, _POOL_SIZE)
    keys = np.asarray(keys).astype(np.uint32)[:, None]
    value = (keys ^ key_xor) * key_mult
    value ^= value >> _U32_XSHIFT
    mixed = pool * np.uint32(_MIX_MULT_L) - value * np.uint32(_MIX_MULT_R)
    mixed ^= mixed >> _U32_XSHIFT
    # the output words, read in pairs as little-endian uint64s
    value = (mixed[:, _OUT_POOL_INDEX] ^ _OUT_XOR) * _OUT_MULT
    value ^= value >> _U32_XSHIFT
    return np.ascontiguousarray(value, dtype="<u4").view("<u8")


def _pcg_jumps(count: int) -> tuple[np.ndarray, ...]:
    """The state PCG64 outputs at draw j = 1..count is mul_j * a + add_j * inc
    with a = initstate + inc (seeding takes one step before the first draw):
    mul_j = M**(j+1) and add_j = sum(M**i, i <= j), mod 2**128. Returns the
    high and low uint64 words of mul, then of add."""
    mul, add = [], []
    power, total = _PCG_MULT, 1
    for _ in range(count):
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        mul.append(power)
        add.append(total)
    return tuple(np.array([v >> shift & (1 << 64) - 1 for v in values], dtype=np.uint64)
                 for values in (mul, add) for shift in (64, 0))


# A block whose streams are all this short is drawn as arrays, in chunks of
# at most _SHORT_CHUNK_CELLS draws; a longer stream goes through a generator.
_SHORT_STREAM_DRAWS = 32
_SHORT_CHUNK_CELLS = 8192
_MUL_HI, _MUL_LO, _ADD_HI, _ADD_LO = _pcg_jumps(_SHORT_STREAM_DRAWS)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High uint64 word of the 128-bit product a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _pcg_grid(a_hi: np.ndarray, a_lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray, width: int) -> np.ndarray:
    """Draws 1..width of each stream, one row per stream, given its columns
    a = initstate + inc and inc as high and low uint64 words.

    Draw j steps the state to mul_j a + add_j inc (mod 2**128); its output is
    the XSL-RR of that state, rotr(hi ^ lo, hi >> 58), and the draw is
    (output >> 11) * 2**-53, as PCG64 and `Generator.random` compute them.
    Every wrapping product is an array product: a product of np.uint64
    scalars warns on overflow.
    """
    m_hi, m_lo = _MUL_HI[:width], _MUL_LO[:width]
    c_hi, c_lo = _ADD_HI[:width], _ADD_LO[:width]
    first = a_lo * m_lo
    lo = first + inc_lo * c_lo
    hi = _mulhi(a_lo, m_lo) + _mulhi(inc_lo, c_lo)
    hi += a_lo * m_hi + a_hi * m_lo + inc_lo * c_hi + inc_hi * c_lo + (lo < first)
    out = hi ^ lo
    rot = hi >> _U58
    out = out >> rot | out << ((_U64 - rot) & _U63)
    return (out >> _U11) * 2.0 ** -53


def _draw_short_streams(words: np.ndarray, widths: np.ndarray, out: np.ndarray) -> None:
    """`_draw_streams` for streams of at most _SHORT_STREAM_DRAWS draws, with
    no generator: rows of streams are drawn as grids of at most
    _SHORT_CHUNK_CELLS cells, and each row keeps its first widths[j] draws."""
    w0, w1, w2, w3 = words.T
    inc_hi = w2 << _U1 | w3 >> _U63
    inc_lo = w3 << _U1 | _U1
    a_lo = inc_lo + w1
    a_hi = inc_hi + w0 + (a_lo < inc_lo)
    rows = max(1, _SHORT_CHUNK_CELLS // int(widths.max()))
    first = 0
    for start in range(0, widths.size, rows):
        part = slice(start, start + rows)
        width = int(widths[part].max())
        grid = _pcg_grid(a_hi[part, None], a_lo[part, None], inc_hi[part, None],
                         inc_lo[part, None], width)
        draws = grid[np.arange(width) < widths[part, None]]
        out[first:first + draws.size] = draws
        first += draws.size


def _draw_streams(seed: int, keys: np.ndarray, widths: list[int], out: np.ndarray) -> None:
    """Fill `out` with the first widths[j] draws of each key's stream in turn,
    `Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(key,)))).random`.

    PCG64 seeds from the words (w0, w1, w2, w3) with initstate = w0 w1 and
    inc = (w2 w3) << 1 | 1: its state starts at inc, adds initstate and takes
    one LCG step, all mod 2**128. If no stream is longer than
    _SHORT_STREAM_DRAWS, every draw is computed from those words as arrays
    (`_draw_short_streams`) and no generator is built. Otherwise the block
    builds one PCG64 generator, sets each stream's state on it in turn and
    draws it there: past a few dozen draws per stream the generator is the
    cheaper of the two.
    """
    words = _stream_words(seed, keys)
    if max(widths) <= _SHORT_STREAM_DRAWS:
        _draw_short_streams(words, np.asarray(widths), out)
        return
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    inner = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    first = 0
    for (w0, w1, w2, w3), width in zip(words.tolist(), widths):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        inner["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        inner["inc"] = inc
        bitgen.state = state
        gen.random(out=out[first:first + width])
        first += width


class _BandTable(NamedTuple):
    """Lookup tables for inverse-transform steps on an n x stride table of
    nondecreasing cumulative columns F_s. Each table is flat, with slot c of
    column s at index s * slots + c.

    Column s's support band is its rows lo <= r < hi, where lo counts its
    entries <= 0 and hi is its first row equal to the total. The bound table
    holds the band's w entries in slots 1..w and the total in the later
    slots; slot 0 is never read. For a draw u, the search (`levels`, one
    (half, bound[half:]) pair per halving) ends at index s * slots + count,
    where count is the number of slots <= u: the band entries <= u while u is
    below the total, and slots - 1 once u reaches it.

    At that index, `next_at` holds j * next_slots, the offset in the next
    step's table of the state j = min(searchsorted(F_s, u, side="right"),
    n - 1). For a population, `below` and `width` hold F_s(j - 1) (0 for
    j = 0) and F_s(j) - F_s(j - 1), and `floor` holds -inf. Where that width
    is 0 they hold inf, 1 and 1 instead, so max((u - below) / width, floor)
    is 1 there.
    """

    levels: tuple[tuple[int, np.ndarray], ...]
    next_at: np.ndarray
    below: np.ndarray | None
    width: np.ndarray | None
    floor: np.ndarray | None
    slots: int


def _band_table(cum: np.ndarray, rescale: bool, next_slots: int | None = None) -> _BandTable:
    """The `_BandTable` of the n x stride table cum, with the rescale tables
    only if `rescale`; next states are offsets in a table of `next_slots`
    slots per column (by default this one).

    A column with a band of w rows has w + 1 outcomes below its total, and
    the clamp, a slot of its own unless the band ends at row n - 1: then the
    count w already picks that state, with the same bounds. `slots` is the
    most outcomes of any column, searched in bit_length(slots - 1) halvings.
    """
    n, stride = cum.shape
    total = cum[-1]
    hi = np.count_nonzero(cum < total, axis=0)[:, None]
    lo = np.minimum(np.count_nonzero(cum <= 0.0, axis=0)[:, None], hi)
    slots = int((hi - lo + (hi < n - 1)).max()) + 1
    cols = np.arange(stride)[:, None]
    slot = np.arange(slots)
    # The flat index of slot c's entry: row lo + c - 1 of its column, or row
    # hi (the total) past the band. Slot 0's is negative where lo = 0, and
    # mode="clip" reads index 0 there. One buffer serves both tables, since
    # a dense chain's tables hold about n^2 slots.
    at = np.add((lo - 1) * stride + cols, slot * stride)
    np.minimum(at, hi * stride + cols, out=at)
    bound = cum.take(at, mode="clip").ravel()
    nxt = at                                        # each slot's next state:
    np.add(lo, slot, out=nxt)
    np.copyto(nxt, n - 1, where=slot > hi - lo)     # the clamp past the band
    below = width = floor = None
    if rescale:
        below = np.where(nxt > 0, cum[nxt - 1, cols], 0.0)
        width = cum[nxt, cols] - below
        empty = width <= 0.0
        below[empty], width[empty] = np.inf, 1.0
        floor = np.where(empty, 1.0, -np.inf).ravel()
        below, width = below.ravel(), width.ravel()
    nxt *= slots if next_slots is None else next_slots
    levels = []
    length = slots
    while length > 1:
        half = length // 2
        levels.append((half, bound[half:]))
        length -= half
    return _BandTable(tuple(levels), nxt.ravel(), below, width, floor, slots)


def _cumulative_columns(a: np.ndarray) -> np.ndarray:
    """Running column sums of max(a, 0), in place in one buffer.

    The rows are added in order, as np.cumsum(np.clip(a, 0, None), axis=0)
    adds them, so the table is bit-identical without its two n x n temporaries.
    """
    cum = np.maximum(a, 0.0)
    for i in range(1, cum.shape[0]):
        np.add(cum[i - 1], cum[i], out=cum[i])
    return cum


def _decode(table: _BandTable, at: np.ndarray, u: np.ndarray) -> None:
    """Step every person for one draw per walker, in place: row d of `at`
    holds person d's state j as j * table.slots, the offset of the column of
    `table` that the person reads.

    Person 0 is the most significant digit, as in np.kron. Each person takes
    the state j its own column selects for the draw, and the draw is then
    rescaled to (u - F(j-1)) / (F(j) - F(j-1)) for the next person, or to 1
    where that block is empty (the draw was clamped into a zero-probability
    state), so the later persons clamp too.
    """
    for d in range(at.shape[0]):
        pos = at[d]
        for half, bound in table.levels:      # bound[pos] is slot pos + half
            passed = bound[pos] <= u
            pos = pos + passed if half == 1 else pos + half * passed   # one call fewer at 1
        if d + 1 < at.shape[0]:
            u = np.maximum((u - table.below[pos]) / table.width[pos], table.floor[pos])
        at[d] = table.next_at[pos]


def _rollout_costs(cum_cols: np.ndarray, cum_x0: np.ndarray, c: np.ndarray,
                   samples: np.ndarray | list[int], copies: int, seed: int,
                   digits: int) -> np.ndarray:
    """Realized cost at each sampled stopping time, summed over the copies.

    Sample i draws from its own substream, spawn key (i,) under the seed:
    copy r takes draws r(t_i+1) .. r(t_i+1)+t_i, the first picking the start
    state from x0 and each later one a step. A block's streams are seeded at
    once from the pool of one `SeedSequence(seed)` (`_stream_words`), so no
    per-sample SeedSequence is built. `_draw_streams` then computes every
    draw as arrays if no stream of the block is longer than 32 draws, and
    otherwise builds one generator for the block and draws each stream
    through it. All walkers of a block step together, longest first so the
    walkers still moving form a prefix. Each step looks its draw up in the
    band tables of the step matrix (`_band_table`, built once per call; x0's
    law is a one-column table), and a walker's state is kept as its column's
    offset in those tables. The states, and hence the costs, are bit-identical to drawing
    and stepping one copy at a time with a fresh generator per sample.

    With digits = N > 1 the tables describe one person and a walker is N
    persons, its cost the sum of theirs. Each draw is decoded digit by digit
    (`_decode`) into the joint state the dense Kronecker table would pick,
    barring draws within about k^N ulps of a block boundary; the 53 bits of
    that draw bound N (see the module docstring).
    """
    step_table = _band_table(cum_cols, digits > 1)
    # x0's law as a one-column table whose states are offsets in step_table
    x0_table = _band_table(cum_x0.reshape(-1, 1), digits > 1, step_table.slots)
    ts = np.asarray(samples, dtype=np.intp)
    block = max(1, _ROLLOUT_BLOCK_DRAWS // (copies * (int(ts.max()) + 1)))
    costs = np.empty(ts.size)
    for lo in range(0, ts.size, block):
        ids = np.arange(lo, min(lo + block, ts.size))
        ids = ids[np.argsort(-ts[ids], kind="stable")]
        t = ts[ids]
        widths = copies * (t + 1)
        starts = np.cumsum(widths) - widths
        u = np.empty(int(widths.sum()))
        _draw_streams(seed, ids, widths.tolist(), u)
        # walker a * copies + r is copy r of sample ids[a]; at[d] is person d's
        # state j as its column's offset j * step_table.slots
        base = (starts[:, None] + np.arange(copies) * (t + 1)[:, None]).ravel()
        at = np.zeros((digits, base.size), dtype=np.intp)
        _decode(x0_table, at, u[base])
        # moving[j - 1] counts the walkers with t >= j, a prefix as t descends
        moving = np.searchsorted(-np.repeat(t, copies), -np.arange(1, t[0] + 1),
                                 side="right")
        for step, k in enumerate(moving.tolist(), start=1):
            _decode(step_table, at[:, :k], u[base[:k] + step])
        walker_cost = c[at // step_table.slots].sum(axis=0).reshape(-1, copies)
        total = np.zeros(ids.size)
        for r in range(copies):     # in copy order, so rounding matches a running sum
            total += walker_cost[:, r]
        costs[ids] = total
    return costs


def compare_report(m, x0, c, samples, xi: float, seed: int, *,
                   copies: int = 1, population: int = 1,
                   support_max: int | None = None) -> ComparisonReport:
    """Plug-in versus robust cost on sampled stopping times.

    t_hat is the rounded sample mean and the plug-in estimate is the expected
    cost at exactly t_hat (times `copies` independent replicas of the chain,
    e.g. one queue per analyst). The robust estimate applies drce_finite to
    the empirical horizon distribution on {1, ..., support_max or max sample}
    at radius xi. Monte Carlo rollouts, one per sample with per-sample
    substreams split from the seed, estimate how often the realized cost
    exceeds each estimate. The rollouts run batched over blocks of samples,
    with each sample's substream pre-drawn from a start state computed for
    the whole block from the pool of one numpy `SeedSequence(seed)`: as
    arrays from the PCG64 recurrence when no stream of the block is longer
    than 32 draws, else through one generator the block builds. Each
    step reads its next state off per-column band tables built once per
    call, by a search over the widest support band. The percentages are
    bit-identical to sequential per-sample draws from fresh generators. The
    matrix need only be column-stochastic. The seed must be a non-negative
    integer, and the samples, support_max, copies and population integers: a
    float among them raises ValueError before any work is done.

    With population = N > 1, (m, x0, c) describe one person and each replica
    is N independent, identical persons, costing the sum of their costs. The
    k^N-state Kronecker chain is never built: the expected cost is N times one
    person's, and each rollout step decodes its one uniform digit by digit
    into the persons' states. The report equals the dense chain's unless a
    draw lies within about k^N ulps of a block boundary, and the 53 bits of
    that draw limit N to a few dozen (see the module docstring).
    """
    a = _validate_transition(m)
    x = as_vector(x0)
    cv = as_vector(c)
    n = a.shape[0]
    if x.shape[0] != n or cv.shape[0] != n:
        raise ValueError("dimension mismatch between matrix, state, and cost")
    if np.any(x < -DEFAULT_TOLS.entry_clamp) or abs(x.sum() - 1.0) > DEFAULT_TOLS.column_sum:
        raise ValueError("x0 must be a probability distribution for rollouts")
    ts = np.asarray(samples)
    if ts.ndim != 1 or ts.dtype.kind not in "biu":
        # a sample that is no integer raises here, named in the message
        ts = np.array([_as_int(t, "samples must be integers") for t in samples], dtype=np.intp)
    if ts.size == 0:
        raise ValueError("samples must be non-empty")
    ts = ts.astype(np.intp, copy=False)
    if ts.min() < 1:
        raise ValueError("stopping times must be >= 1")
    for name, value in (("copies", copies), ("population", population)):
        if _as_int(value, f"{name} must be an integer") < 1:
            raise ValueError(f"{name} must be >= 1")
    copies, population = int(copies), int(population)
    seed = _checked_seed(seed)

    k = ts.size
    t_hat = int(round(int(ts.sum()) / k))
    t_max = int(ts.max())
    horizon = t_max if support_max is None else \
        _as_int(support_max, "support_max must be an integer")
    if horizon < t_max:
        raise ValueError("support_max is below the largest sample")

    counts = np.bincount(ts, minlength=horizon + 1)
    p_hat = counts[1:horizon + 1] / k
    g = cost_sequence_strided(a, x, cv, horizon).values * (copies * population)
    empirical = float(g[t_hat - 1])
    robust = drce_finite(CostSequence(horizon, g),
                         AmbiguitySet(p_hat, float(xi))).value

    cum_cols = _cumulative_columns(a)
    cum_x0 = np.cumsum(np.clip(x, 0.0, None))
    costs = _rollout_costs(cum_cols, cum_x0, cv, ts, copies, seed, population)
    pct_emp = 100.0 * float(np.mean(costs > empirical))
    pct_rob = 100.0 * float(np.mean(costs > robust))
    return ComparisonReport(empirical, robust, pct_emp, pct_rob,
                            t_hat, float(xi), seed)
