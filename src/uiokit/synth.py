"""Observer synthesis from kernel representations, plus acceptor checks.

Both design routes reduce to the same two steps.  First, obtain a kernel
representation of the plant's one-step behaviour: a full-row-rank matrix

    Psi = [V_p  V_f  W_p  W_f  R_p  R_f]

whose kernel equals the span of the achievable stacked windows
(x, x+, u, u+, y, y+).  The model route (`model_kernel`) reads it off the
left kernel of the small disturbance block [[E, 0], [F, 0], [CE, F]], which
determines the left kernel of the consistency matrix Gamma in closed form;
the data route (`kernel_representation`) annihilates the recorded-window
matrix Phi.  Under the excitation assumption the two spans coincide, so
the designs agree; `design_from_data` refuses data that fails the
excitation check of `datalog.excitation_report`.

Second, turn the kernel representation into an observer.  With
Omega_bar the left inverse of V_f and Delta_f a maximal left annihilator of
V_f, both from one SVD of V_f, the pair

    A_bar = Omega_bar @ V_p,    C_bar = Delta_f @ V_p

is detectable exactly when an observer exists for this kernel; any gain L
with A_bar + L @ C_bar Schur yields, via Omega = Omega_bar + L @ Delta_f,

    A_uio = -(A_bar + L @ C_bar)
    D_u = -(Omega @ W_f),      B_u = A_uio @ D_u - Omega @ W_p
    D_y = -(Omega @ R_f),      B_y = A_uio @ D_y - Omega @ R_p

In exact arithmetic A_uio = -(Omega @ V_p); the emitted A_uio is the
negated closed-loop array the gain stage returned after verifying its
spectrum, so the reported spectrum belongs to the emitted matrix itself,
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

`verify_acceptor` / `verify_uio` check candidate observers against a model
through the three acceptor identities (unknown-input rejection, recursion
consistency, known-input feedthrough) plus the Schur requirement.  The
model route certifies its own designs with the acceptor identities and the
spectrum the gain stage verified, so no eigenvalue problem is solved twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .datalog import _require_finite_entries, excitation_report
from .numkit import (
    DEFAULT_TOL,
    SCHUR_MARGIN,
    NotDetectable,
    NotObservable,
    NumericalFailure,
    RankTolerance,
    SpectrumReport,
    _left_null_svd,
    _rank_from_singular_values,
    _spectrum_report,
    left_null_basis,
    place_poles,
    rank,
    spectrum,
    stabilizing_gain,
)
from .plant import (_UIO_KEYS, StateSpaceModel, UioRealization, _load_json,
                    _matrix_fields, _require_same_dims)

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


class NoUio(Exception):
    """The pipeline certifies that no unknown-input observer exists.

    Attributes:
        cause: one of VF_RANK_DEFICIENT, NOT_DETECTABLE.
        evidence: the offending ranks / eigenvalues.
    """

    def __init__(self, cause: str, detail: str, evidence: dict | None = None):
        super().__init__(f"{cause}: {detail}")
        self.cause = cause
        self.detail = detail
        self.evidence = dict(evidence or {})


class UioFormatError(ValueError):
    """An observer file could not be parsed."""


@dataclass(frozen=True)
class KernelRep:
    """Partitioned kernel representation [V_p V_f W_p W_f R_p R_f].

    ``rank_V_f`` is the rank of the V_f block as decided against the
    generating matrix itself (see `kernel_representation`); None means no
    such data-aware decision is available and consumers fall back to a
    plain rank of the stored block.  Construction refuses, with ValueError,
    a block with a non-finite entry, named by block, row and column.
    """

    V_p: np.ndarray
    V_f: np.ndarray
    W_p: np.ndarray
    W_f: np.ndarray
    R_p: np.ndarray
    R_f: np.ndarray
    rank_V_f: int | None = None

    def __post_init__(self) -> None:
        for name in ("V_p", "V_f", "W_p", "W_f", "R_p", "R_f"):
            _require_finite_entries(getattr(self, name), name,
                                    "row {}, column {}")

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
    def from_matrix(cls, Psi, dims) -> "KernelRep":
        """Slice a stacked matrix by dims = (n, m, p)."""
        n, m, p = (int(v) for v in dims)
        Psi = np.asarray(Psi, dtype=float)
        if Psi.ndim != 2 or Psi.shape[1] != 2 * (n + m + p):
            raise ValueError(
                f"kernel matrix must have {2 * (n + m + p)} columns, "
                f"got shape {Psi.shape}"
            )
        c = np.cumsum([n, n, m, m, p, p])
        return cls(
            V_p=Psi[:, :c[0]].copy(), V_f=Psi[:, c[0]:c[1]].copy(),
            W_p=Psi[:, c[1]:c[2]].copy(), W_f=Psi[:, c[2]:c[3]].copy(),
            R_p=Psi[:, c[3]:c[4]].copy(), R_f=Psi[:, c[4]:c[5]].copy(),
        )


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
        condition (b)); the zero-based decisions of detectability and
        condition (a) use the fixed `numkit.ZERO_CUT_RELATIVE`.
    schur_margin: stability margin for the detectability test and the
        Schur verdicts, in [0, 1).

    Construction refuses, with ValueError, every request that breaks one
    of these rules, so a design never starts from an invalid request.
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


@dataclass(frozen=True)
class SynthesisDiagnostics:
    """Intermediate objects and self-check residuals from one synthesis run."""

    Omega_bar: np.ndarray
    Delta_f: np.ndarray
    A_bar: np.ndarray
    C_bar: np.ndarray
    L: np.ndarray
    gain: str
    spectrum: SpectrumReport
    residuals: dict = field(default_factory=dict)


def kernel_representation(
    G,
    dims,
    tol: RankTolerance = DEFAULT_TOL,
) -> KernelRep:
    """Kernel representation of the behaviour spanned by the columns of G.

    ``G`` is a window-generating matrix with 2(n+m+p) rows, the
    recorded-window matrix Phi on the data route; ``dims`` is (n, m, p).
    The result has k = 2(n+m+p) - rank(G) rows with
    full row rank and annihilates G.  k = 0 is legal (empty kernel); later
    synthesis stages then fail with NoUio.  A G of the wrong height or with
    a non-finite entry is refused with ValueError.
    """
    n, m, p = (int(v) for v in dims)
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != 2 * (n + m + p):
        raise ValueError(
            f"window matrix must have {2 * (n + m + p)} rows, got {G.shape}"
        )
    _require_finite_entries(G, "window matrix", "row {}, column {}")
    basis, sigma = _left_null_svd(G, tol)

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
    rank_g = G.shape[0] - basis.shape[0]
    rank_vf = rank(np.hstack([G, selector]), tol) - rank_g if n else 0

    rep = KernelRep.from_matrix(basis, (n, m, p))
    return replace(rep, rank_V_f=rank_vf)


def model_kernel(
    model: StateSpaceModel, tol: RankTolerance = DEFAULT_TOL
) -> KernelRep:
    """Kernel representation of the plant's one-step behaviour, from the model.

    It spans the left kernel of `plant.consistency_matrix` without forming
    that matrix.  Reading its column blocks (x, u, u+, d, d+), a row
    [v_p, v_f, w_p, w_f, r_p, r_f] annihilates Gamma exactly when
    z = [v_f, r_p, r_f] annihilates the disturbance block

        M = [[E, 0], [F, 0], [CE, F]]     ((n + 2p) x 2r)

    and the other three blocks are

        v_p = -(v_f A + r_p C + r_f CA),  w_p = -(v_f B + r_p D + r_f CB),
        w_f = -r_f D.

    So one SVD of M gives the kernel, k = n + 2p - rank(M) rows.  The rows
    are then orthonormalized by one thin QR; every row embeds its z, so
    they keep full row rank.  ``rank_V_f`` is left None: V_f is a block of
    z itself, and `synthesize` decides its rank from its own SVD.
    """
    n, m, p, r = model.n, model.m, model.p, model.r
    M = np.zeros((n + 2 * p, 2 * r))
    M[:n, :r] = model.E
    M[n:n + p, :r] = model.F
    M[n + p:, :r] = model.C @ model.E
    M[n + p:, r:] = model.F
    Z = left_null_basis(M, tol)
    Z_v, Z_p, Z_f = np.hsplit(Z, [n, n + p])
    AB = np.hstack([model.A, model.B])
    past = -(Z @ np.vstack([AB, np.hstack([model.C, model.D]), model.C @ AB]))
    Psi = np.hstack([past[:, :n], Z_v, past[:, n:], -(Z_f @ model.D), Z_p, Z_f])
    return KernelRep.from_matrix(np.linalg.qr(Psi.T)[0].T, (n, m, p))


def synthesize(
    ker: KernelRep, options: SynthesisOptions | None = None
) -> tuple[UioRealization, SynthesisDiagnostics]:
    """Turn a kernel representation into a verified-stable observer.

    Pipeline: one full SVD V_f = U S V' gives rank(V_f), which must be n;
    Omega_bar = V S^-1 U_1' (the Moore-Penrose left inverse) and
    Delta_f = U_2' (an orthonormal left annihilator), with U = [U_1, U_2]
    split after n columns.  Then form the pair (A_bar, C_bar), compute the
    gain (Riccati or pole placement with negated pole requests — see module
    docstring) and read off the observer matrices.  A ``ker.rank_V_f``
    recorded at extraction time (the data route's decision against the
    generating matrix) takes the place of the SVD rank in the NoUio test.
    Detectability is decided once, inside the gain stage: `stabilizing_gain`
    refuses undetectable modes, and `place_poles` refuses every unobservable
    mode, whose unstable ones make the same NoUio.  A_uio is the negation
    of the closed-loop array A_bar + L @ C_bar that the gain stage returned
    with its verified eigenvalues, and the reported spectrum is those
    eigenvalues negated: the spectrum of the emitted A_uio, computed once.

    Raises:
        NoUio: with cause VF_RANK_DEFICIENT or NOT_DETECTABLE.
        NumericalFailure: when ``ker.rank_V_f`` says n but the SVD of V_f
            has fewer than n singular values above the cutoff.
        ValueError: from `numkit.place_poles`, for a pole multiset of the
            wrong size or one that is not closed under conjugation.
        NotObservable / PlacementFailed / NumericalFailure: propagated from
            the gain stage (NotObservable when every unobservable mode is
            stable).
    """
    opt = options or SynthesisOptions()
    n = ker.n
    U, s, Vt = np.linalg.svd(ker.V_f)
    svd_rank = _rank_from_singular_values(s, ker.V_f.shape, opt.tol)
    r_vf = svd_rank if ker.rank_V_f is None else ker.rank_V_f
    if r_vf < n:
        raise NoUio(
            VF_RANK_DEFICIENT,
            f"rank(V_f) = {r_vf} < n = {n}",
            evidence={"rank_V_f": r_vf, "n": n, "k": ker.k},
        )
    if svd_rank < n:
        raise NumericalFailure(
            f"matrix of shape {ker.V_f.shape} has rank {svd_rank} < {n}"
        )
    Omega_bar = (Vt.T / s) @ U[:, :n].T
    Delta_f = U[:, n:].T
    A_bar = Omega_bar @ ker.V_p
    C_bar = Delta_f @ ker.V_p

    try:
        if opt.gain == "riccati":
            L, loop, closed = stabilizing_gain(A_bar, C_bar,
                                               margin=opt.schur_margin)
        else:
            # The caller requests eigenvalues of A_uio = -(A_bar + L C_bar);
            # place the negated set so the request is what comes out.
            L, loop, closed = place_poles(
                A_bar, C_bar, -np.asarray(opt.poles, dtype=complex))
    except (NotDetectable, NotObservable) as exc:
        # Stable unobservable modes alone do not rule an observer out, but
        # no gain moves them, so the NotObservable of `place_poles` stands.
        bad = [z for z in exc.modes if abs(z) >= 1.0 - opt.schur_margin]
        if not bad:
            raise
        # An eigenvalue z of A_bar that C_bar cannot see stays in the error
        # loop A_uio = -(A_bar + L C_bar) as -z: the plant's mode.  0j - z
        # keeps the imaginary part of a real mode at +0, as the zeros of
        # condition (a) have it, where -z would print 1.3-0j.
        modes = [0j - z for z in bad]
        raise NoUio(
            NOT_DETECTABLE,
            "undetectable unstable modes of the plant: "
            + ", ".join(f"{z:.6g}" for z in modes),
            evidence={"undetectable_modes": modes,
                      "A_bar_eigenvalues": np.linalg.eigvals(A_bar).tolist()},
        ) from exc

    Omega = Omega_bar + L @ Delta_f
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
    spec_report = _spectrum_report(-closed, opt.schur_margin)
    residuals = {
        "omega_identity": float(
            np.abs(Omega @ ker.V_f - np.eye(n)).max() if n else 0.0
        ),
        "sign_identity": float(
            np.abs(Omega @ ker.V_p - loop).max() if n else 0.0
        ),
    }
    diag = SynthesisDiagnostics(
        Omega_bar=Omega_bar, Delta_f=Delta_f, A_bar=A_bar, C_bar=C_bar,
        L=L, gain=opt.gain, spectrum=spec_report, residuals=residuals,
    )
    return uio, diag


def design_from_model(
    model: StateSpaceModel, options: SynthesisOptions | None = None
) -> tuple[UioRealization, SynthesisDiagnostics]:
    """Model route: `model_kernel` of the plant, then `synthesize`.

    The model is at hand, so the observer is certified against it before
    it is returned: by the three acceptor identities of `verify_acceptor`,
    and by the Schur verdict of ``diag.spectrum``, which is the spectrum of
    the emitted A_uio (see `synthesize`).  That is the `verify_uio` test,
    with the same failure wording, without a second eigenvalue solve.

    Raises:
        NumericalFailure: if the synthesized observer fails that test, with
            its failures in the message.
        NoUio / NotObservable / PlacementFailed / ValueError: as
            `synthesize`.
    """
    opt = options or SynthesisOptions()
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
        NumericalFailure: when the excitation check fails, with its message.
        NoUio / NotObservable / PlacementFailed / ValueError: as
            `synthesize`.
    """
    opt = options or SynthesisOptions()
    excitation = excitation_report(blocks, opt.tol)
    if not excitation.ok:
        raise NumericalFailure("data route refused: " + excitation.message)
    ker = kernel_representation(blocks.Phi, (blocks.n, blocks.m, blocks.p), opt.tol)
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

    With T = [-D_y, A_uio D_y - B_y] the identities are

        acc1:  T @ [[CE, F], [F, 0]] = [-E, 0]
        acc2:  A_uio = A + T @ [[CA], [C]]
        acc3:  [B_u; D_u] = [[(I - D_y C) B - B_y D], [-D_y D]]

    Residuals are max-abs per identity; the observer is an acceptor iff all
    three stay below ``tol``.
    """
    _require_same_dims(model, uio)
    n, p, r = model.n, model.p, model.r
    A, B, C, D, E, F = model.A, model.B, model.C, model.D, model.E, model.F
    T_blk = np.hstack([-uio.D_y, uio.A_uio @ uio.D_y - uio.B_y])
    ce_f = np.zeros((2 * p, 2 * r))
    ce_f[:p, :r] = C @ E
    ce_f[:p, r:] = F
    ce_f[p:, :r] = F
    acc1 = T_blk @ ce_f - np.hstack([-E, np.zeros((n, r))])
    acc2 = uio.A_uio - A - T_blk @ np.vstack([C @ A, C])
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
    """Acceptor check plus Schur check; reports every failure by name."""
    acc = verify_acceptor(model, uio, tol)
    spec_report = spectrum(uio.A_uio, margin)
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


# --------------------------------------------------------------------------
# Observer files: JSON, read like model files by `plant`'s one reader.


def uio_to_dict(uio: UioRealization, diagnostics: SynthesisDiagnostics | None = None) -> dict:
    doc: dict = {key: getattr(uio, key).tolist() for key in _UIO_KEYS}
    if diagnostics is not None:
        doc["diagnostics"] = {
            "gain": diagnostics.gain,
            "eigenvalues": [
                [float(ev.real), float(ev.imag)]
                for ev in diagnostics.spectrum.eigenvalues
            ],
            "spectral_radius": float(diagnostics.spectrum.spectral_radius),
            "schur": bool(diagnostics.spectrum.is_schur),
            "residuals": {k: float(v) for k, v in diagnostics.residuals.items()},
        }
    return doc


def uio_from_dict(doc: dict) -> UioRealization:
    """Build an observer from a parsed JSON document.

    `plant`'s matrix-document reader checks the document's structure, and
    `UioRealization` its content (finite entries, consistent shapes); its
    refusal becomes a UioFormatError.
    """
    mats = _matrix_fields(doc, _UIO_KEYS, "observer", UioFormatError)
    try:
        return UioRealization(**mats)
    except ValueError as exc:
        raise UioFormatError(str(exc)) from None


def save_uio(path, uio: UioRealization,
             diagnostics: SynthesisDiagnostics | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(uio_to_dict(uio, diagnostics), fh, indent=2)
        fh.write("\n")


def load_uio(path) -> UioRealization:
    """Parse an observer JSON file; raises UioFormatError on any defect."""
    return uio_from_dict(_load_json(path, UioFormatError))
