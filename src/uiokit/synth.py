"""Observer synthesis from kernel representations, plus acceptor checks.

Both design routes reduce to the same two steps.  First, obtain a kernel
representation of the plant's one-step behaviour: a full-row-rank matrix

    Psi = [V_p  V_f  W_p  W_f  R_p  R_f]

whose kernel equals the span of the achievable stacked windows
(x, x+, u, u+, y, y+), together with the rank of its V_f block.  The model
route (`model_kernel`) builds it in closed form from one balanced SVD of
the 2p x 2r disturbance block [[F, 0], [CE, F]], already in the
coordinates the second step works in: V_f = [I; 0] whenever an observer
can exist.  The data route (`kernel_representation`) annihilates the
recorded-window matrix Phi with an orthonormal basis.  Under the
excitation assumption the two spans coincide, so the designs agree;
`design_from_data` refuses data that fails the excitation check of
`datalog.excitation_report`.

Second, turn the kernel representation into an observer.  Both routes
hand it over in synthesis coordinates: whenever rank(V_f) = n, the rows
carry V_f = [I; 0], so the top n rows are the left inverse of V_f applied
to the kernel and the others annihilate V_f.  `KernelRep.from_matrix` is
the one place where a general basis is moved into these coordinates.  The
pair

    A_bar = V_p[:n],    C_bar = V_p[n:]

is detectable exactly when an observer exists for this kernel; any gain L
with A_bar + L @ C_bar Schur yields, via Omega = [I, L],

    A_uio = -(A_bar + L @ C_bar)
    D_u = -(Omega @ W_f),      B_u = A_uio @ D_u - Omega @ W_p
    D_y = -(Omega @ R_f),      B_y = A_uio @ D_y - Omega @ R_p

In exact arithmetic A_uio = -(Omega @ V_p); the emitted A_uio is the
negated closed-loop array the gain stage returned after verifying that it
is Schur, so the reported spectrum belongs to the emitted matrix itself,
and the ``sign_identity`` residual max |Omega @ V_p - (A_bar + L @ C_bar)|
guards the Omega-derived blocks.  Note the sign convention: the gain stage shapes the spectrum of
A_bar + L @ C_bar, whose *negative* becomes A_uio — `synthesize` therefore
negates requested pole locations internally, so the poles a caller asks
for are the eigenvalues the returned A_uio actually has.

`SynthesisOptions` checks a design request when it is built (margin,
gain, the gain/poles pairing and the pole moduli), so neither route
repeats those checks; `numkit.place_poles` keeps the ones that need n.
Models, observers and trajectories likewise check themselves when they
are built (`plant`, `datalog`), so no function here checks them again.

The model route keeps two stage results, for one model at a time
(`_stage`): the disturbance ranks per ``tol``, which
`existcheck.condition_b` and the kernel both read, and the certified
design per `SynthesisOptions`, so a `design_from_model` after
`existcheck.exists_uio` reads the observer that call certified.  A
refusal and a kernel are not kept: a later call decides them again.

`verify_acceptor` / `verify_uio` check candidate observers against a model
through the three acceptor identities (unknown-input rejection, recursion
consistency, known-input feedthrough) plus the Schur requirement, which
`verify_uio` proves from A_uio's own Stein solution, solving A_uio's
eigenvalues only when that proves nothing or they are read.  The model
route certifies its own designs with the acceptor identities and the
Schur verdict the gain stage reached, so no eigenvalue problem is solved
twice, and none at all when the Riccati solution proved the verdict and
nobody reads the eigenvalues.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numkit import (
    DEFAULT_TOL,
    SCHUR_MARGIN,
    NoUio,
    NotDetectable,
    NotObservable,
    NumericalFailure,
    RankTolerance,
    RepeatedPole,
    SpectrumReport,
    _Deferred,
    _left_null_svd,
    _rank_from_singular_values,
    _smith_spectrum,
    _spectrum_report,
    balanced_rank,
    place_poles,
    rank,
    stabilizing_gain,
)
# NoUio (from numkit) and the observer file format (from plant) are
# re-exported, so `synth.NoUio` and `synth.load_uio` keep their names.
from .plant import (StateSpaceModel, UioFormatError, UioRealization,
                    _frozen, _require_finite_entries, _require_same_dims,
                    load_uio, save_uio, uio_from_dict, uio_to_dict)

__all__ = [
    "NoUio",
    "VF_RANK_DEFICIENT",
    "NOT_DETECTABLE",
    "KernelRep",
    "SynthesisOptions",
    "SynthesisDiagnostics",
    "AcceptorReport",
    "UioVerification",
    "UioFormatError",
    "kernel_representation",
    "model_kernel",
    "synthesize",
    "design_from_model",
    "design_from_data",
    "verify_acceptor",
    "verify_uio",
    "uio_to_dict",
    "uio_from_dict",
    "save_uio",
    "load_uio",
]

#: NoUio cause tags.
VF_RANK_DEFICIENT = "VfRankDeficient"
NOT_DETECTABLE = "NotDetectable"


@dataclass(frozen=True)
class KernelRep:
    """Partitioned kernel representation [V_p V_f W_p W_f R_p R_f].

    ``rank_V_f`` is the rank of the V_f block as decided where the kernel
    was built: against the generating matrix on the data route
    (`kernel_representation`), from the disturbance block on the model
    route (`model_kernel`), from an SVD of V_f for a bare basis
    (`from_matrix`).  Whenever it equals n the rows are in synthesis
    coordinates, V_f = [I; 0], which is what `synthesize` reads.
    Construction stores read-only float copies of the blocks and refuses,
    with ValueError, a block with a non-finite entry, named by block, row
    and column, and rank n with any other V_f.
    """

    V_p: np.ndarray
    V_f: np.ndarray
    W_p: np.ndarray
    W_f: np.ndarray
    R_p: np.ndarray
    R_f: np.ndarray
    rank_V_f: int

    def __post_init__(self) -> None:
        for name in ("V_p", "V_f", "W_p", "W_f", "R_p", "R_f"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
            _require_finite_entries(getattr(self, name), name,
                                    "row {}, column {}")
        if self.rank_V_f == self.n and not np.array_equal(
                self.V_f, np.eye(self.k, self.n)):
            raise ValueError("rank_V_f = n needs V_f = [I; 0]")

    @property
    def k(self) -> int:
        return self.V_p.shape[0]

    @property
    def n(self) -> int:
        return self.V_p.shape[1]

    @property
    def m(self) -> int:
        return self.W_p.shape[1]

    @property
    def p(self) -> int:
        return self.R_p.shape[1]

    def matrix(self) -> np.ndarray:
        """Reassembled k x 2(n+m+p) matrix."""
        return np.hstack(
            [self.V_p, self.V_f, self.W_p, self.W_f, self.R_p, self.R_f]
        )

    @classmethod
    def from_matrix(cls, Psi, dims, rank_V_f: int | None = None,
                    tol: RankTolerance = DEFAULT_TOL) -> "KernelRep":
        """Slice a stacked matrix by dims = (n, m, p), in synthesis coordinates.

        ``Psi`` may be any basis of the kernel.  Its blocks are checked
        first, then one SVD V_f = U S V' decides rank(V_f) at ``tol``, unless
        ``rank_V_f`` brings a rank decided where Psi was built.  With rank
        n the rows become [Omega_bar Psi; Delta_f Psi], Omega_bar =
        V S^-1 U_1' (the Moore-Penrose left inverse of V_f) and Delta_f =
        U_2' (an orthonormal left annihilator), U = [U_1, U_2] split after n
        columns, and V_f is stored as exactly [I; 0].  With a smaller rank
        the rows stay as they are: no observer can be read off them.

        Raises:
            ValueError: for a Psi of the wrong width or with a non-finite
                entry.
            NumericalFailure: when ``rank_V_f`` says n but the SVD of V_f
                has fewer than n singular values above the cutoff.
        """
        n, m, p = (int(v) for v in dims)
        Psi = np.array(Psi, dtype=float)
        if Psi.ndim != 2 or Psi.shape[1] != 2 * (n + m + p):
            raise ValueError(
                f"kernel matrix must have {2 * (n + m + p)} columns, "
                f"got shape {Psi.shape}"
            )
        cuts = np.cumsum([n, n, m, m, p])
        blocks = np.hsplit(Psi, cuts)
        cls(*blocks, rank_V_f=0)  # names a non-finite entry by its block
        U, s, Vt = np.linalg.svd(blocks[1])
        svd_rank = _rank_from_singular_values(s, blocks[1].shape, tol)
        rank_V_f = svd_rank if rank_V_f is None else rank_V_f
        if rank_V_f == n:
            if svd_rank < n:
                raise NumericalFailure(f"matrix of shape {blocks[1].shape} "
                                       f"has rank {svd_rank} < {n}")
            blocks = np.hsplit(
                np.vstack([(Vt.T / s) @ U[:, :n].T, U[:, n:].T]) @ Psi, cuts)
            blocks[1] = np.eye(len(Psi), n)
        return cls(*blocks, rank_V_f=rank_V_f)


@dataclass(frozen=True)
class SynthesisOptions:
    """Knobs for `synthesize` and the two design entry points.

    gain: "riccati" (default) or "place" (needs ``poles``).  Both are
        deterministic; neither takes a seed.
    poles: requested A_uio eigenvalues for the "place" gain, each strictly
        inside the circle of radius 1 - schur_margin; must be None for
        "riccati".  `numkit.place_poles` checks the count against n and
        closure under conjugation.
    tol: relative cutoff of the SVD rank decisions (kernel, rank(V_f),
        condition (b)).  On the model route the two ranks that decide the
        kernel, rank(V_f) and condition (b), rank(F) and rank N, are read
        by `numkit.balanced_rank`, where it multiplies a cut taken after
        power-of-two scaling, so a change of units does not move them (see
        `model_kernel`).  The zero-based decisions of detectability and
        condition (a) use the fixed `numkit.ZERO_CUT_RELATIVE`.
    schur_margin: stability margin of the Schur verdicts and of the
        detectability test, in [0, 1).  For the Riccati gain the Schur
        verdict on its closed loop is that test (a mode of modulus
        >= 1 - schur_margin that C_bar cannot see stays in the loop); for
        the place gain it splits the unobservable modes into unstable ones
        (NoUio) and stable ones.

    Construction refuses, with ValueError, every request that breaks one
    of these rules, poles that are not a flat sequence, and a ``tol`` that
    is not a `RankTolerance`, so a design never starts from an invalid
    request.  It stores ``poles`` as a
    tuple, so equal requests given as a list, a tuple or an array compare
    equal and hash alike: they key one kept design (see
    `design_from_model`).
    """

    gain: str = "riccati"
    poles: tuple | None = None
    tol: RankTolerance = DEFAULT_TOL
    schur_margin: float = SCHUR_MARGIN

    def __post_init__(self) -> None:
        if not 0.0 <= self.schur_margin < 1.0:
            raise ValueError(
                f"schur_margin must lie in [0, 1), got {self.schur_margin!r}"
            )
        if self.gain not in ("riccati", "place"):
            raise ValueError(f"unknown gain method {self.gain!r}")
        if self.gain == "riccati" and self.poles is not None:
            raise ValueError('gain "riccati" takes no poles; '
                             'pole requests need gain "place"')
        if self.gain == "place" and self.poles is None:
            raise ValueError('gain "place" needs a pole multiset in options.poles')
        if self.poles is not None and not (
                np.abs(np.asarray(self.poles, dtype=complex))
                < 1.0 - self.schur_margin).all():
            raise ValueError(
                "requested poles must have modulus below 1 - schur_margin = "
                f"{1.0 - self.schur_margin:.12g}"
            )
        if self.poles is not None:
            if np.ndim(self.poles) > 1:
                raise ValueError("poles must be a flat sequence, got shape "
                                 f"{np.shape(self.poles)}")
            object.__setattr__(self, "poles",
                               tuple(np.atleast_1d(self.poles).tolist()))
        if not isinstance(self.tol, RankTolerance):
            raise ValueError(f"tol must be a RankTolerance, got {self.tol!r}")


@dataclass(frozen=True)
class SynthesisDiagnostics:
    """Intermediate objects and the self-check residual of one synthesis run.

    ``sign_identity`` is max |Omega @ V_p - (A_bar + L @ C_bar)| (see the
    module docstring).  Construction stores read-only float copies of
    A_bar, C_bar and L, and the fields cannot be assigned, so a kept
    design reads the same to every caller.
    """

    A_bar: np.ndarray
    C_bar: np.ndarray
    L: np.ndarray
    gain: str
    spectrum: SpectrumReport
    sign_identity: float

    def __post_init__(self) -> None:
        for name in ("A_bar", "C_bar", "L"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


def kernel_representation(
    G,
    dims,
    tol: RankTolerance = DEFAULT_TOL,
) -> KernelRep:
    """Kernel representation of the behaviour spanned by the columns of G.

    ``G`` is a window-generating matrix with 2(n+m+p) rows, the
    recorded-window matrix Phi on the data route; ``dims`` is (n, m, p),
    or (n, m, p, r) when the disturbance width r is known (r None: not
    known).  The result has k = 2(n+m+p) - rank(G) rows with
    full row rank and annihilates G, in synthesis coordinates
    (`KernelRep.from_matrix`, given the rank(V_f) decided here).  k = 0 is
    legal (empty kernel); later synthesis stages then fail with NoUio.  A G
    of the wrong height or with a non-finite entry is refused with
    ValueError.

    Every window of a plant with r disturbances is a linear image of
    [x_p; u_p; u_f; d_p; d_f], so with r known a rank(G) above
    n + 2m + 2r proves that G is not an exact record of such a plant (a
    file printed to fewer digits, say).  Its kernel would then be too
    small, and the answer it gives wrong, so it is refused with
    `NumericalFailure` instead.
    """
    n, m, p, r = (*dims, None)[:4]
    n, m, p = int(n), int(m), int(p)
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != 2 * (n + m + p):
        raise ValueError(
            f"window matrix must have {2 * (n + m + p)} rows, got {G.shape}"
        )
    _require_finite_entries(G, "window matrix", "row {}, column {}")
    basis, sigma = _left_null_svd(G, tol)
    rank_g = G.shape[0] - basis.shape[0]
    if r is not None and rank_g > (bound := n + 2 * m + 2 * int(r)):
        raise NumericalFailure(
            f"the windows are not an exact trajectory: rank(Phi) = {rank_g} "
            f"exceeds n + 2m + 2r = {bound}, with sigma_{bound + 1} = "
            f"{sigma[bound]:.3g} against sigma_1 = {sigma[0]:.3g}")

    # Rank of the V_f block, decided against G itself rather than the
    # computed basis: each kernel direction visible in the x+ coordinates
    # adds exactly one rank unit when the (scaled) x+ selectors are appended
    # to G, so rank(V_f) = rank([G, S]) - rank(G), where rank(G) is the
    # row count minus the kernel dimension.  A basis of the kernel of
    # a badly scaled G (unstable plants reach ~1e4 within a few samples) is
    # only accurate to eps * sigma_max / sigma_min_kept, and that leakage
    # can lift a truly deficient V_f block to full numerical rank; the
    # augmented-rank decision stays on the data's own scale.
    selector = np.zeros((G.shape[0], n))
    selector[n:2 * n, :] = np.eye(n)
    g_scale = float(sigma[0]) if sigma.size else 0.0
    if g_scale > 0.0:
        selector *= g_scale
    rank_vf = rank(np.hstack([G, selector]), tol) - rank_g if n else 0

    return KernelRep.from_matrix(basis, (n, m, p), rank_vf, tol)


def _disturbance_block(F: np.ndarray, CE: np.ndarray) -> np.ndarray:
    """N = [[F, 0], [CE, F]], the disturbance block of a one-step window."""
    p, r = F.shape
    N = np.zeros((2 * p, 2 * r))
    N[:p, :r] = F
    N[p:, :r] = CE
    N[p:, r:] = F
    return N


# --------------------------------------------------------------------------
# The model route's kept stages: the disturbance ranks per tol and the
# certified design per options.

#: (a weak reference to the one model whose stage results are kept, those
#: results by stage and options).  It is replaced whole, in one assignment,
#: so concurrent callers need no lock: a caller holding another model
#: misses.
_record: tuple = (None, {})


def _forget(ref: weakref.ref) -> None:
    """Drop the stage results of a model that died."""
    global _record
    if _record[0] is ref:
        _record = (None, {})


def _stage(model: StateSpaceModel, name: str, compute, option):
    """``compute(model, option)``, run at most once per model and option.

    The results of one model are kept at a time, through a weak reference
    that drops them when the model dies, so no stage outlives its model and
    a sequence of models keeps the stages of one.  The key is the model's
    identity: a `StateSpaceModel` keeps read-only copies of its matrices,
    and every array a stage returns is read-only, so one identity reads one
    set of values.  A refusal is not a result: it propagates as any
    exception does, keeps nothing, and a later call decides it again.
    """
    global _record
    ref, results = _record
    if ref is None or ref() is not model:
        results = {}
        _record = (weakref.ref(model, _forget), results)
    key = (name, option)
    if key not in results:
        results[key] = compute(model, option)
    return results[key]


def _disturbance_ranks(model: StateSpaceModel, tol: RankTolerance):
    """rank(F) and the `numkit.balanced_rank` (rho_N, U, s, Vt) of N.

    Each is decided at the error scale of its entries: |F| for F, and for
    N the same block built from |F| and |C| |E|, since CE is computed.
    """
    F, C, E = model.F, model.C, model.E
    rank_F = balanced_rank(F, np.abs(F), tol)[0]
    S = _disturbance_block(np.abs(F), np.abs(C) @ np.abs(E))
    rho_n, *factors = balanced_rank(_disturbance_block(F, C @ E), S, tol)
    for M in factors:
        M.setflags(write=False)
    return rank_F, (rho_n, *factors)


def _model_ranks(model: StateSpaceModel, tol: RankTolerance):
    """The ranks stage: `_disturbance_ranks`, run once per model and tol."""
    return _stage(model, "ranks", _disturbance_ranks, tol)


def model_kernel(
    model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL
) -> KernelRep:
    """Kernel representation of the plant's one-step behaviour, from the model.

    It spans the left kernel of `plant.consistency_matrix` without forming
    that matrix.  Reading its column blocks (x, u, u+, d, d+), a row
    [v_p, v_f, w_p, w_f, r_p, r_f] annihilates Gamma exactly when
    z = [v_f, y], y = [r_p, r_f], annihilates the disturbance block

        M = [[E, 0], N],   N = [[F, 0], [CE, F]]     ((n + 2p) x 2r)

    and the other three blocks are

        v_p = -(v_f A + r_p C + r_f CA),  w_p = -(v_f B + r_p D + r_f CB),
        w_f = -r_f D.

    Two ranks decide everything, each by `numkit.balanced_rank` at the
    error scale of its entries: rho_N of N and rank(F) (see
    `_disturbance_ranks`, which condition (b) reads too).  [E; F] has full
    column rank r, so rank M = r + rank(F), and the part [E, 0] V_2 of E
    outside N's row space has rank rho_E = r + rank(F) - rho_N, by that
    identity rather than by a third cut.  The rows come out in the
    coordinates `synthesize` works in, from the scaled-back SVD
    N ~ U S V' of the balanced N:

    - Bottom rows: y runs over the 2p - rho_N left null vectors U_2' of N,
      and v_f = 0.  They see no x+ and give C_bar.  One thin QR makes them
      orthonormal.
    - Top rows: v_f = Z_v and y = -Z_v [E, 0] V_1 S_1^-1 U_1', where Z_v
      is I when rho_E = 0, and otherwise the left singular vectors of
      [E, 0] V_2 beyond the first rho_E (that SVD decides nothing).  They
      are projected orthogonal to the bottom rows, which keeps v_f, so
      V_f = [Z_v; 0] and ``rank_V_f`` = n - rho_E is recorded.  With
      Z_v = I they are the rows Omega_bar Psi that
      `KernelRep.from_matrix` forms from any orthonormal kernel basis Psi,
      and give A_bar.

    So k = n + 2p - rho_N - rho_E rows, and rank(V_f) = n exactly when
    condition (b), rho_N = rank(F) + r, holds.

    The two ranks are the model route's kept ranks stage (see `_stage`),
    the ones `existcheck.condition_b` decides; the kernel itself is built
    on every call, once per design.
    """
    n, m, p, r = model.n, model.m, model.p, model.r
    rank_F, (rho_n, U, s, Vt) = _model_ranks(model, tol)
    rho_e = r + rank_F - rho_n
    EV = model.E @ Vt[:, :r].T  # [E, 0] V
    Z_v = np.eye(n)
    if rho_e > 0:
        Z_v = np.linalg.svd(EV[:, rho_n:])[0][:, rho_e:].T

    AB = np.hstack([model.A, model.B])
    CD_CAB = np.vstack([np.hstack([model.C, model.D]), model.C @ AB])

    def rows(y):
        """[v_p, w_p, w_f, r_p, r_f] of the rows with v_f = 0 and this y."""
        return np.hstack([-(y @ CD_CAB), -(y[:, p:] @ model.D), y])

    top = rows(-(Z_v @ (EV[:, :rho_n] / s[:rho_n]) @ U[:, :rho_n].T))
    top[:, :n + m] -= Z_v @ AB
    Q = np.linalg.qr(rows(U[:, rho_n:].T).T)[0]
    top -= (top @ Q) @ Q.T
    V_f = np.zeros((top.shape[0] + Q.shape[1], n))
    V_f[:top.shape[0]] = Z_v
    V_p, W_p, W_f, R_p, R_f = np.hsplit(np.vstack([top, Q.T]),
                                        np.cumsum([n, m, m, p]))
    return KernelRep(V_p=V_p, V_f=V_f, W_p=W_p, W_f=W_f, R_p=R_p, R_f=R_f,
                     rank_V_f=n - rho_e)


def synthesize(
    ker: KernelRep, options: SynthesisOptions | None = None
) -> tuple[UioRealization, SynthesisDiagnostics]:
    """Turn a kernel representation into a verified-stable observer.

    Pipeline: ``ker.rank_V_f``, decided where the kernel was built, must be
    n; the kernel is then in synthesis coordinates (V_f = [I; 0], see
    `KernelRep`), so A_bar and C_bar are the top n and the other rows of
    V_p, and nothing is factored.  Then compute the gain (Riccati or pole
    placement with negated pole requests — see module docstring) and read
    off the observer matrices with Omega = [I, L].
    Detectability is decided once, inside the gain stage: the Riccati
    gain's verified Schur loop proves it (with a check on the size of the
    Riccati solution, see `numkit.stabilizing_gain`), and the zero
    staircase runs only when that proof fails, to name the undetectable
    modes refused; `place_poles` refuses every unobservable mode, whose
    unstable ones make the same NoUio.  A_uio is the negation
    of the closed-loop array A_bar + L @ C_bar that the gain stage returned
    with its verified `SpectrumReport`.  ``diag.spectrum`` carries the
    Riccati report's Schur verdict, or judges the placed eigenvalues at
    ``schur_margin``.  Its eigenvalues are the loop's negated, the
    spectrum of the emitted A_uio, solved once and only when first read (a
    Riccati verdict proved from the Riccati solution solves none; the
    place gain's are already solved).

    Raises:
        NoUio: with cause VF_RANK_DEFICIENT or NOT_DETECTABLE.
        ValueError: from `numkit.place_poles`, for a pole multiset of the
            wrong size or one that is not closed under conjugation.
        RepeatedPole: for a requested A_uio pole that repeats more than
            rank(C_bar) >= 2 times; it names that pole, as requested.
        NotObservable / PlacementFailed / NumericalFailure: propagated from
            the gain stage (NotObservable when every unobservable mode is
            stable).
    """
    opt = options or SynthesisOptions()
    n = ker.n
    if ker.rank_V_f < n:
        raise NoUio(
            VF_RANK_DEFICIENT,
            f"rank(V_f) = {ker.rank_V_f} < n = {n}",
            evidence={"rank_V_f": ker.rank_V_f, "n": n, "k": ker.k},
        )
    A_bar, C_bar = ker.V_p[:n], ker.V_p[n:]

    try:
        if opt.gain == "riccati":
            L, loop, closed = stabilizing_gain(A_bar, C_bar,
                                               margin=opt.schur_margin)
            # A_uio = -loop: the loop's verdict, and its eigenvalues negated
            # once someone reads them.
            spec_report = SpectrumReport(
                closed.is_schur, opt.schur_margin,
                partial(_negated_eigenvalues, closed))
        else:
            # The caller requests eigenvalues of A_uio = -(A_bar + L C_bar);
            # place the negated set so the request is what comes out.
            L, loop, placed = place_poles(
                A_bar, C_bar, -np.asarray(opt.poles, dtype=complex))
            spec_report = _spectrum_report(-placed.eigenvalues,
                                           opt.schur_margin)
    except RepeatedPole as exc:
        # Name the pole of A_uio = -(A_bar + L C_bar) that the caller asked
        # for, not the negated one placed.
        pole = 0j - exc.pole
        raise RepeatedPole(pole.real if pole.imag == 0 else pole, exc.count,
                           exc.rank, "A_uio") from None
    except (NotDetectable, NotObservable) as exc:
        # Stable unobservable modes alone do not rule an observer out, but
        # no gain moves them, so the NotObservable of `place_poles` stands.
        bad = [z for z in exc.modes if abs(z) >= 1.0 - opt.schur_margin]
        if not bad:
            raise
        raise _not_detectable(bad, A_bar) from exc

    Omega = np.hstack([np.eye(n), L])
    A_uio = -loop
    D_u = -(Omega @ ker.W_f)
    D_y = -(Omega @ ker.R_f)
    uio = UioRealization(
        A_uio=A_uio,
        B_u=A_uio @ D_u - Omega @ ker.W_p,
        B_y=A_uio @ D_y - Omega @ ker.R_p,
        D_u=D_u,
        D_y=D_y,
    )
    diag = SynthesisDiagnostics(
        A_bar=A_bar, C_bar=C_bar, L=L, gain=opt.gain, spectrum=spec_report,
        sign_identity=float(
            np.abs(Omega @ ker.V_p - loop).max() if n else 0.0),
    )
    return uio, diag


def _not_detectable(bad: list, A_bar: np.ndarray) -> NoUio:
    """The NOT_DETECTABLE refusal of the unstable modes ``bad`` of A_bar
    that C_bar cannot see."""
    # An eigenvalue z of A_bar that C_bar cannot see stays in the error
    # loop A_uio = -(A_bar + L C_bar) as -z: the plant's mode.  The modes
    # come in LAPACK's order, each conjugate pair +j first, and listing
    # -conj(z) in place of -z keeps that order, as condition (a) lists its
    # zeros.  0j - conj(z) keeps the imaginary part of a real mode at +0,
    # as the zeros of condition (a) have it, where -z would print 1.3-0j.
    modes = [0j - z.conjugate() for z in bad]
    # A_bar's eigenvalues are solved only if the evidence is read:
    # `exists_uio` keeps just the refusal's text.
    return NoUio(
        NOT_DETECTABLE, _undetectable_detail(modes),
        evidence={"undetectable_modes": modes,
                  "A_bar_eigenvalues": _Deferred(_eigenvalue_list,
                                                 A_bar.copy())},
    )


def _undetectable_detail(modes: list) -> str:
    """The detail of a NOT_DETECTABLE refusal of the plant's ``modes``."""
    return ("undetectable unstable modes of the plant: "
            + ", ".join(f"{z:.6g}" for z in modes))


def _eigenvalue_list(M: np.ndarray) -> list:
    return np.linalg.eigvals(M).tolist()


def _negated_eigenvalues(report: SpectrumReport) -> np.ndarray:
    """The eigenvalues of the report's matrix, negated."""
    return -report.eigenvalues


def design_from_model(
    model: StateSpaceModel, options: SynthesisOptions | None = None
) -> tuple[UioRealization, SynthesisDiagnostics]:
    """Model route: `model_kernel` of the plant, then `synthesize`.

    The model is at hand, so the observer is certified against it before
    it is returned: by the three acceptor identities of `verify_acceptor`,
    and by the Schur verdict of ``diag.spectrum``, which is the verdict on
    the emitted A_uio (see `synthesize`).  That is the `verify_uio` test,
    with the same failure wording; a Riccati design whose verdict was
    proved from its Riccati solution solves no eigenvalue problem at all.
    A hidden mode is refused by the gain stage's own rule (see
    `numkit.stabilizing_gain`); `existcheck.exists_uio` refuses one from
    condition (a)'s replayed witness before it would call this.

    The certified design is a kept stage of the model route (see
    `_stage`): it is decided once per model and options, from
    `model_kernel` at ``options.tol``.  A second call with equal options,
    such as a design after `existcheck.exists_uio`, returns the same
    read-only observer and diagnostics that call certified.  A refusal is
    not kept, so a second call decides it again, as does an equal-valued
    copy of the model.

    Raises:
        NumericalFailure: if the synthesized observer fails that test, with
            its failures in the message.
        NoUio / NotObservable / PlacementFailed / ValueError: as
            `synthesize`.
    """
    return _stage(model, "design", _certified_design,
                  options or SynthesisOptions())


def _certified_design(model: StateSpaceModel, opt: SynthesisOptions):
    """The design stage: `design_from_model`, run once per model and
    options, on a kernel built for it."""
    uio, diag = synthesize(model_kernel(model, opt.tol), opt)
    failures = _failures(verify_acceptor(model, uio), diag.spectrum)
    if failures:
        raise NumericalFailure(
            "model-route design failed verification: " + "; ".join(failures)
        )
    return uio, diag


def design_from_data(
    blocks, options: SynthesisOptions | None = None
) -> tuple[UioRealization, SynthesisDiagnostics]:
    """Data route: kernel of the recorded-window matrix, then `synthesize`.

    ``blocks`` is a `datalog.DataBlocks`; `datalog.build_blocks` is where
    declared dimensions are checked against the recorded widths.  Data that
    fails `datalog.excitation_report` is refused: in "assumption" mode the
    check is the data theorem's own hypothesis, and in "surrogate" mode
    (no disturbance record) a failure on the row subset [X_p; U_p; U_f]
    proves the assumption fails too.  A surrogate PASS is only necessary,
    so that design goes ahead and the report's warning stands.

    Raises:
        NumericalFailure: when the excitation check fails, with its message,
            when ``blocks.r`` is known and rank(Phi) exceeds n + 2m + 2r
            (`kernel_representation`), or when rank(V_f) decided against
            Phi is n but the SVD of the kernel's V_f finds less
            (`KernelRep.from_matrix`).
        NoUio / NotObservable / PlacementFailed / ValueError: as
            `synthesize`.
    """
    # Only the data route needs datalog; the model route never loads it.
    from .datalog import excitation_report

    opt = options or SynthesisOptions()
    excitation = excitation_report(blocks, opt.tol)
    if not excitation.ok:
        raise NumericalFailure("data route refused: " + excitation.message)
    ker = kernel_representation(
        blocks.Phi, (blocks.n, blocks.m, blocks.p, blocks.r), opt.tol)
    return synthesize(ker, opt)


# --------------------------------------------------------------------------
# Acceptor verification.


@dataclass(frozen=True)
class AcceptorReport:
    """Max-abs residuals of the three acceptor identities."""

    residuals: dict
    max_residual: float
    tol: float
    is_acceptor: bool


@dataclass(frozen=True)
class UioVerification:
    """Acceptor residuals plus the Schur verdict for a candidate observer."""

    acceptor: AcceptorReport
    spectrum: SpectrumReport
    is_uio: bool
    failures: tuple


def _max_abs(M: np.ndarray) -> float:
    return float(np.abs(M).max()) if M.size else 0.0


def verify_acceptor(
    model: StateSpaceModel, uio: UioRealization, tol: float = 1e-8
) -> AcceptorReport:
    """Check the three acceptor identities of an observer against a model.

    With T = [A_uio D_y - B_y, -D_y] and N = [[F, 0], [CE, F]], the
    disturbance block `model_kernel` reads, the identities are

        acc1:  T @ N = [-E, 0]
        acc2:  A_uio = A + T @ [[C], [CA]]
        acc3:  [B_u; D_u] = [[(I - D_y C) B - B_y D], [-D_y D]]

    Residuals are max-abs per identity; the observer is an acceptor iff all
    three stay below ``tol``.
    """
    _require_same_dims(model, uio)
    n, r = model.n, model.r
    A, B, C, D, E, F = model.A, model.B, model.C, model.D, model.E, model.F
    T_blk = np.hstack([uio.A_uio @ uio.D_y - uio.B_y, -uio.D_y])
    acc1 = T_blk @ _disturbance_block(F, C @ E) - np.hstack(
        [-E, np.zeros((n, r))])
    acc2 = uio.A_uio - A - T_blk @ np.vstack([C, C @ A])
    acc3 = np.vstack([uio.B_u, uio.D_u]) - np.vstack(
        [(np.eye(n) - uio.D_y @ C) @ B - uio.B_y @ D, -uio.D_y @ D]
    )
    residuals = {
        "acc1": _max_abs(acc1),
        "acc2": _max_abs(acc2),
        "acc3": _max_abs(acc3),
    }
    worst = max(residuals.values())
    return AcceptorReport(
        residuals=residuals, max_residual=worst, tol=tol,
        is_acceptor=worst < tol,
    )


def verify_uio(
    model: StateSpaceModel,
    uio: UioRealization,
    tol: float = 1e-8,
    margin: float = SCHUR_MARGIN,
) -> UioVerification:
    """Acceptor check plus Schur check; reports every failure by name.

    The Schur verdict on A_uio is proved, when it can be, from A_uio's own
    Stein solution P - A_uio P A_uio' = I - A_k A_k', built by Smith
    doubling (`numkit._smith_spectrum`) and checked by
    `numkit._stein_proves_schur`.  Then ``spectrum`` is a lazy
    `SpectrumReport`, like a design's: A_uio's eigenvalues are solved only
    when they are read, as a failure line does.  When nothing is proved,
    the eigenvalues decide, as in `numkit.spectrum`.
    """
    acc = verify_acceptor(model, uio, tol)
    spec_report = _smith_spectrum(uio.A_uio, margin)
    failures = _failures(acc, spec_report)
    return UioVerification(
        acceptor=acc,
        spectrum=spec_report,
        is_uio=not failures,
        failures=tuple(failures),
    )


def _failures(acc: AcceptorReport, spec_report: SpectrumReport) -> list[str]:
    """The `verify_uio` failure lines for an acceptor report and a spectrum."""
    failures = [
        f"{name} residual {value:.3e} exceeds {acc.tol:.1e}"
        for name, value in acc.residuals.items()
        if value >= acc.tol
    ]
    if not spec_report.is_schur:
        failures.append(
            f"A_uio is not Schur: spectral radius {spec_report.spectral_radius:.6g}"
        )
    return failures
