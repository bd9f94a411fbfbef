# Hand-written example with a cyclic call graph: a mutually recursive
# even/odd pair (one recursion knot in the call graph) plus an ordinary
# helper called from inside the knot and a straight-line caller around
# it.  Exercises the SCC-condensation schedule on a non-trivial
# condensation — {even, odd} collapses to one component that both main
# and halve depend on.  Its summaries must not depend on --jobs.
.main main

.routine main .exported
  # v0 = even(10) + parity_bit(7)
  li a0, 10
  bsr ra, even
  mov v0, s1
  li a0, 7
  bsr ra, parity_bit
  addq v0, s1, v0
  ret
.end

.routine even
  # even(n) = n == 0 ? 1 : odd(n - 1)
  lda sp, -8(sp)
  stq ra, 0(sp)
  bne a0, recurse
  li v0, 1
  br out
recurse:
  subq a0, 1, a0
  bsr ra, odd
out:
  ldq ra, 0(sp)
  lda sp, 8(sp)
  ret
.end

.routine odd
  # odd(n) = n == 0 ? 0 : even(n - 1), with the zero case delegated to
  # the helper so the knot has an edge leaving the component.
  lda sp, -8(sp)
  stq ra, 0(sp)
  bne a0, recurse
  bsr ra, zero
  br out
recurse:
  subq a0, 1, a0
  bsr ra, even
out:
  ldq ra, 0(sp)
  lda sp, 8(sp)
  ret
.end

.routine zero
  li v0, 0
  ret
.end

.routine parity_bit
  # parity via the knot from a second entry point into it
  lda sp, -8(sp)
  stq ra, 0(sp)
  bsr ra, odd
  ldq ra, 0(sp)
  lda sp, 8(sp)
  ret
.end
