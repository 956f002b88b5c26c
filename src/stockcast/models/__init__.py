"""Forecasting models: the two main tracks plus the classical baselines.

Every model class has the same three members, which is all the
walk-forward harness and the pipeline ask of it:

- `kind`, the model's name in artifacts and reports;
- `min_history`, the first panel row it can predict (the rows before it
  do not cover its input);
- `predict(history)`, which maps the walk-forward's audited `History`
  of N forecast origins to an `(N,)` array of next-day closes.

`artifacts.KINDS` lists every kind in report order, with the class its
artifact decodes to, its report label, and whether it is windowed and
reads sentiment. `pipeline.train_model` is the one place that fits a kind.
"""
