"""Gauss and minimal cubature rules for reflection-symmetric weights on
the square and its folded curved domain, with independent moment
certification."""
