"""Table 4 reproduction: transfer learning to random schemas.

The TPC-H-lite-trained EMF is evaluated, unmodified, on labeled pair
datasets of increasing size generated over randomly-generated schemas —
the db-agnostic encoding (§4.2) is what makes this possible at all.
Paper sizes: 1.2k / 5k / 11k / 19.9k / 44.9k pairs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.nn.model import EMF
from repro.nn.train import evaluate
from repro.workload.labeler import make_dataset
from repro.workload.schema import random_schema

PAPER_SIZES = (1_200, 5_000, 11_000, 19_900, 44_900)


@dataclass
class TransferRow:
    size: int
    schema: str
    precision: float
    recall: float
    f1: float


@dataclass
class Table4Result:
    rows: list[TransferRow] = field(default_factory=list)

    def markdown(self) -> str:
        out = [
            "| Dataset Size | Schema | Precision | Recall | F1 |",
            "|---|---|---|---|---|",
        ]
        for r in self.rows:
            out.append(
                f"| {r.size} | {r.schema} | {r.precision:.2f} | "
                f"{r.recall:.2f} | {r.f1:.2f} |"
            )
        return "\n".join(out)


def run(
    model: EMF,
    *,
    sizes: tuple[int, ...] = PAPER_SIZES,
    seed: int = 300,
) -> Table4Result:
    res = Table4Result()
    for k, size in enumerate(sizes):
        schema = random_schema(seed + k)
        ds = make_dataset(schema, size // 2, size // 2, seed=seed + 10 * k)
        m = evaluate(model, ds)
        res.rows.append(
            TransferRow(m["tp"] + m["fp"] + m["fn"] + m["tn"], schema.name,
                        m["precision"], m["recall"], m["f1"])
        )
    return res
