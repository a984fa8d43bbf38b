"""Gap reports: chromatic number versus edge-removal bound, instance by instance.

For every instance the report records D = |E(G)| - ex(G, rK2) next to
chi(G, rK2) and the verdict on the equality chi = D. The inequality
chi <= D holds for all graphs; a computed chi exceeding D therefore aborts
as an internal error rather than being reported.
"""

from __future__ import annotations

from typing import Any

from .coloring import ChiCertificate, chromatic_number
from .errors import Deadline, KneserSizeError, Record, SearchTimeout, VerificationError, ensure_deadline
from .families import FamilyParams, gap_tree
from .graphs import LabeledGraph, is_connected
from .homcert import certify_family
from .kneser import DEFAULT_MATCHING_CAP, build_matching_kneser
from .turan import DeletionCertificate, min_deletion_set

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
UNKNOWN = "UNKNOWN"


class GapReport(Record):
    """One instance's numbers: edge count, ex, removal bound D, chi, and verdict.

    ``chi``/``gap`` are None when a solver timed out or the Kneser graph was
    too large to build; the verdict is then UNKNOWN. Family instances carry
    the construction's predicted values side by side with a match flag:
    False when a computed value contradicts its prediction, None when none
    does but a predicted value is unknown, True when every one is met.
    """

    instance: str
    r: int
    edge_count: int
    ex: int | None
    removal_bound: int | None
    chi: int | None
    gap: int | None
    verdict: str
    connected: bool
    chi_certificate: ChiCertificate | None
    deletion_certificate: DeletionCertificate | None
    predicted_chi: int | None = None
    predicted_removal: int | None = None
    prediction_match: bool | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "instance": self.instance,
            "r": self.r,
            "edge_count": self.edge_count,
            "ex": self.ex,
            "removal_bound": self.removal_bound,
            "chi": self.chi,
            "gap": self.gap,
            "verdict": self.verdict,
            "connected": self.connected,
            "predicted_chi": self.predicted_chi,
            "predicted_removal": self.predicted_removal,
            "prediction_match": self.prediction_match,
            "witnesses": {
                "chi": self.chi_certificate.to_json_dict() if self.chi_certificate else None,
                "deletion": self.deletion_certificate.to_json_dict()
                if self.deletion_certificate
                else None,
            },
        }


def _verdict(chi: int | None, removal: int | None) -> str:
    if chi is None or removal is None:
        return UNKNOWN
    if chi > removal:
        raise VerificationError(
            f"internal error: chi = {chi} exceeds removal bound {removal}; "
            "this contradicts the general inequality"
        )
    return HOLDS if chi == removal else VIOLATED


def assemble_report(
    instance: str,
    r: int,
    G: LabeledGraph,
    deletion: DeletionCertificate | None,
    chi_cert: ChiCertificate | None,
    predicted_chi: int | None = None,
    predicted_removal: int | None = None,
) -> GapReport:
    """Combine solved certificates into a GapReport, enforcing the invariants."""

    removal = deletion.size if deletion is not None and deletion.optimal else None
    ex = G.m - removal if removal is not None else None
    chi = chi_cert.k if chi_cert is not None else None
    verdict = _verdict(chi, removal)
    gap = removal - chi if (chi is not None and removal is not None) else None
    pairs = ((chi, predicted_chi), (removal, predicted_removal))
    predicted = [(value, p) for value, p in pairs if p is not None]
    match: bool | None = None
    if any(value is not None and value != p for value, p in predicted):
        match = False
    elif predicted and all(value is not None for value, _ in predicted):
        match = True
    return GapReport(
        instance=instance,
        r=r,
        edge_count=G.m,
        ex=ex,
        removal_bound=removal,
        chi=chi,
        gap=gap,
        verdict=verdict,
        connected=is_connected(G),
        chi_certificate=chi_cert,
        deletion_certificate=deletion,
        predicted_chi=predicted_chi,
        predicted_removal=predicted_removal,
        prediction_match=match,
    )


def gap_report(
    G: LabeledGraph,
    r: int,
    instance: str = "",
    time_budget: float | None = None,
    deadline: Deadline | None = None,
    kneser_cap: int = DEFAULT_MATCHING_CAP,
) -> GapReport:
    """Solve one instance end to end and report the gap.

    chi comes from building and solving the matching Kneser graph directly.
    Timeouts and cap overruns degrade to UNKNOWN instead of failing.
    """

    deadline = ensure_deadline(deadline, time_budget)
    label = instance or f"graph(n={G.n},m={G.m})"
    deletion = min_deletion_set(G, r, deadline=deadline)
    try:
        mkg = build_matching_kneser(G, r, cap=kneser_cap, deadline=deadline)
        chi_cert = chromatic_number(mkg.graph, deadline=deadline)
    except (KneserSizeError, SearchTimeout):
        chi_cert = None
    return assemble_report(label, r, G, deletion, chi_cert)


def family_report(params: FamilyParams, host: LabeledGraph, instance: str, deadline: Deadline) -> GapReport:
    """One prescribed-gap instance solved on ``host`` and set against its closed forms.

    chi comes from :func:`certify_family`, which never builds the big
    Kneser graph; a certification that times out or exceeds its matching
    cap leaves chi unknown, as in :func:`gap_report`. The predictions are
    chi = theta and removal bound theta + gamma. ``deadline`` bounds the
    whole instance.
    """

    try:
        chi_cert = certify_family(params, deadline=deadline).chi_certificate
    except (KneserSizeError, SearchTimeout):
        chi_cert = None
    deletion = min_deletion_set(host, params.r, deadline=deadline)
    return assemble_report(
        instance, params.r, host, deletion, chi_cert,
        predicted_chi=params.theta, predicted_removal=params.theta + params.gamma,
    )


def sequence_report(
    theta: int,
    r_list: list[int],
    time_budget: float | None = None,
    deadline: Deadline | None = None,
) -> list[GapReport]:
    """Reports for the radius-2 tree family at fixed theta across the given r values.

    Each report carries the construction's closed-form predictions
    (chi = theta and removal bound theta + r - 2, hence gap r - 2) alongside
    the computed values; a mismatch shows up in ``prediction_match`` rather
    than overwriting anything. One deadline bounds the whole sequence.
    """

    deadline = ensure_deadline(deadline, time_budget)
    reports = []
    for r in r_list:
        params = FamilyParams(r=r, theta=theta, gamma=r - 2)
        reports.append(family_report(params, gap_tree(r, theta), f"tree(r={r},theta={theta})", deadline))
    return reports


def json_text(payload: Any) -> str:
    """``payload`` as indented JSON; ``json`` is imported on first use, not with the package."""

    import json

    return json.dumps(payload, indent=2)


def reports_json(reports: list[GapReport]) -> str:
    return json_text([rep.to_json_dict() for rep in reports])


def reports_table(reports: list[GapReport]) -> str:
    """Aligned text table over the report list."""

    headers = ["instance", "r", "|E|", "ex", "D", "chi", "gap", "verdict", "connected", "match"]
    rows = [headers]
    for rep in reports:
        rows.append(
            [
                rep.instance,
                str(rep.r),
                str(rep.edge_count),
                "?" if rep.ex is None else str(rep.ex),
                "?" if rep.removal_bound is None else str(rep.removal_bound),
                "?" if rep.chi is None else str(rep.chi),
                "?" if rep.gap is None else str(rep.gap),
                rep.verdict,
                "yes" if rep.connected else "no",
                "-" if rep.prediction_match is None else ("yes" if rep.prediction_match else "NO"),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines)
