"""Concrete problems: analytic QPs with certified KKT solutions, the
encoder/classifier/decoder network task, and dataset handling."""
