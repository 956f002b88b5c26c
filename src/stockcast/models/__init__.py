"""Forecasting models: the two main tracks plus the classical baselines.

Every model class has the same three members, which is all the
walk-forward harness and the pipeline ask of it:

- `kind`, the model's name in artifacts and reports;
- `min_history`, the first panel row it can predict (the rows before it
  do not cover its input);
- `predict(histories)`, which maps a sequence of the walk-forward's
  audited history slices to an `(N,)` array of next-day closes.
"""
