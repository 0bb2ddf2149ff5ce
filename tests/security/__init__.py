"""Security tier: exact separation of schemes under active attack.

Every test here pins a deterministic adversarial outcome — where an
attack is caught (which hop, or the receiver), or that its acceptance
is a *documented* blind spot. The tier runs in every tier-1 run;
``test_separation_grid.py`` pins all 48 cells of the grid exactly, so
ALPHA accepting anything, or any scheme accepting more, fails it.
"""
