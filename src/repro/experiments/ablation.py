"""Filter ablation (Figure 14, reported as a table): total runtime of
``GEqO_SET(W, F)`` — filtering plus verification of survivors — for
every nonempty subset of {SF, VMF, EMF}. The paper's finding: only the
full cascade minimizes total runtime (the filters are complementary)."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import geqo_set_local
from repro.experiments.table1 import planted_pool
from repro.nn.model import EMF

SUBSETS = [
    ("SF",), ("VMF",), ("EMF",),
    ("SF", "VMF"), ("SF", "EMF"), ("VMF", "EMF"),
    ("SF", "VMF", "EMF"),
]


@dataclass
class AblationRow:
    filters: str
    total_seconds: float
    av_verifications: int
    found: int


@dataclass
class AblationResult:
    rows: list[AblationRow] = field(default_factory=list)
    n_pairs: int = 0

    def markdown(self) -> str:
        out = [
            f"~{self.n_pairs} pairs; total runtime = filters + AV on survivors",
            "",
            "| Filters | Total (s) | AV verifications | equivalences found |",
            "|---|---|---|---|",
        ]
        for r in self.rows:
            out.append(
                f"| {r.filters} | {r.total_seconds:.2f} | "
                f"{r.av_verifications} | {r.found} |"
            )
        return "\n".join(out)


def run(
    model: EMF,
    *,
    n_subexpr: int = 160,
    n_equiv: int = 32,
    seed: int = 500,
) -> AblationResult:
    plans, tau = planted_pool(
        model, n_subexpr=n_subexpr, n_equiv=n_equiv, seed=seed
    )
    res = AblationResult(n_pairs=len(plans) * (len(plans) - 1) // 2)
    for subset in SUBSETS:
        r = geqo_set_local(plans, model, filters=subset, tau=tau)
        res.rows.append(
            AblationRow("+".join(subset), r.total_time,
                        r.av_pairs_checked, len(r.pairs))
        )
    return res
