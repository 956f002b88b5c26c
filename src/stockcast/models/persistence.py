"""Persistence baseline: tomorrow's forecast is today's close."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class PersistenceModel:
    kind: ClassVar[str] = "persistence"
    min_history: ClassVar[int] = 1

    train_end: date | None = None

    def predict(self, histories) -> np.ndarray:
        return np.array([h.last_closes(1)[0] for h in histories], dtype=np.float64)
