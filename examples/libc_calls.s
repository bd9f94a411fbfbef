# Hand-written example program that calls the C library routines
# summarised in examples/libc.sum.  Without --externals every call to
# them is assumed to follow the calling standard; with the summaries the
# analysis knows which argument registers each one reads and which
# registers it kills.
.main main

.routine main .exported
  lda sp, -16(sp)
  stq ra, 0(sp)
  stq f31, 8(sp)       # zero a stack slot
  bsr ra, copy
  bsr ra, measure
  ldq ra, 0(sp)
  lda sp, 16(sp)
  ret
.end

.routine copy
  # memcpy(a0, a1, 64); a3 is set but memcpy does not read it
  lda sp, -16(sp)
  stq ra, 0(sp)
  li a2, 64
  li a3, 1
  bsr ra, memcpy
  ldq ra, 0(sp)
  lda sp, 16(sp)
  ret
.end

.routine measure
  # v0 = strlen(a0); f0 = fabs(f16); abort() when the length is zero
  lda sp, -16(sp)
  stq ra, 0(sp)
  stq f31, 8(sp)
  bsr ra, strlen
  mov v0, s0
  bsr ra, fabs
  bne s0, done
  bsr ra, abort
done:
  mov s0, v0
  ldq ra, 0(sp)
  lda sp, 16(sp)
  ret
.end
