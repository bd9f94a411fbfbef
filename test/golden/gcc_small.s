.main main

.routine main .exported
.entry main$entry
main$entry:
  li v0, 1
  bsr ra, r1
  xor v0, t0, v0
  bsr ra, r1
  xor v0, t8, v0
  bsr ra, r3
  xor v0, t0, v0
  ret
.end

.routine r0
.entry r0$entry
r0$entry:
  lda sp, -216(sp)
  stq s1, 0(sp)
  stq s2, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  li s1, 5
  ldq t3, 56(sp)
  li t11, 4
  stq t11, 88(sp)
loop0:
  stq t4, 32(sp)
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop0
  bge t4, else1
  stq a5, 56(sp)
  br join2
else1:
  li t4, 800
join2:
  beq t3, r0$epi1
  bsr ra, r6
  subq a4, a4, a4
  li t11, 2
  stq t11, 120(sp)
loop3:
  li a1, 400
  beq t4, lskip4
  bsr ra, r2
lskip4:
  bge t4, lskip5
  bsr ra, r11
lskip5:
  bge a5, lskip6
  bsr ra, r10
lskip6:
  bge t3, lskip7
  bsr ra, r8
lskip7:
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  bgt t11, loop3
  bsr ra, r16
  li t11, 17
  stq t11, 152(sp)
sw8:
  ldq t11, 152(sp)
  subq t11, 1, t11
  stq t11, 152(sp)
  ble t11, swend9
  switch t11, [arm10, arm11, arm12, arm13, arm14, arm15, arm16, arm17, arm18, arm19]
arm10:
  addq a5, t3, t4
  br sw8
arm11:
  bsr ra, r6
  subq a1, 0, a1
  br sw8
arm12:
  bsr ra, r5
  li t4, 293
  br sw8
arm13:
  bsr ra, r0
  subq a5, 26, t0
  br sw8
arm14:
  ldq t4, 80(sp)
  br sw8
arm15:
  bsr ra, r2
  mov a4, a5
  br sw8
arm16:
  addq t4, 6, t4
  br sw8
arm17:
  bsr ra, r3
  addq t3, a5, a4
  br sw8
arm18:
  bsr ra, r7
  cmpeq a4, 62, t3
  br sw8
arm19:
  bsr ra, r5
  stq a5, 56(sp)
  br sw8
swend9:
  bge a5, else20
  stq t4, 24(sp)
  br join21
else20:
  sll a5, 54, t4
join21:
  and t3, a5, t4
  bne t0, else22
  mov a4, t0
  br join23
else22:
  cmpeq a1, 49, t0
join23:
  bsr ra, r7
  bge a1, else24
  li t0, 335
  br join25
else24:
  or t4, t4, t4
join25:
  bne a5, else26
  li t4, 598
  br join27
else26:
  or t4, t0, a5
join27:
  bge a5, else28
  sll t3, 53, a1
  br join29
else28:
  li a4, 241
join29:
  beq t3, else30
  subq a1, 2, t4
  br join31
else30:
  stq t0, 48(sp)
join31:
  bsr ra, r8
  li a1, 167
  li t0, 438
  stq a1, 32(sp)
  subq t0, t3, t4
  stq t4, 48(sp)
  cmplt t3, t0, t3
  addq t3, a5, a5
  sll a5, 12, a4
  ldq a1, 72(sp)
  mov t0, t3
  stq t0, 80(sp)
  ldq a4, 72(sp)
  subq t0, t0, t3
  subq t0, 60, a1
  stq a4, 80(sp)
  ldq t3, 24(sp)
  subq t0, 57, t0
  li t3, 543
  cmpeq a1, 53, t4
  mov t4, a1
  mov a5, t4
r0$epi0:
  ldq s1, 0(sp)
  ldq s2, 8(sp)
  ldq ra, 16(sp)
  lda sp, 216(sp)
  ret
r0$epi1:
  ldq s1, 0(sp)
  ldq s2, 8(sp)
  ldq ra, 16(sp)
  lda sp, 216(sp)
  ret
.end

.routine r1
.entry r1$entry
r1$entry:
  lda sp, -184(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  mov t0, t8
  beq f11, else0
  addq f11, t8, a2
  br join1
else0:
  stq t0, 48(sp)
join1:
  bsr ra, r6
  blt t8, else2
  ldq t0, 24(sp)
  br join3
else2:
  stq t8, 48(sp)
join3:
  blt a2, else4
  stq a2, 40(sp)
  br join5
else4:
  stq f11, 16(sp)
join5:
  mov a2, t0
  bne a2, else6
  stq t10, 64(sp)
  br join7
else6:
  mov a2, t10
join7:
  blt t0, else8
  addq f11, 1, t10
  br join9
else8:
  subq t8, 42, a2
join9:
  li t11, 2
  stq t11, 88(sp)
loop10:
  stq t0, 48(sp)
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop10
  bsr ra, r4
  li t11, 2
  stq t11, 120(sp)
loop11:
  ldq t0, 8(sp)
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  bgt t11, loop11
  subq a2, 26, a2
  bsr ra, r8
  bge f11, else12
  mov t8, t10
  br join13
else12:
  ldq t0, 48(sp)
join13:
  stq f15, 152(sp)
  bsr ra, r4
  ldq f15, 152(sp)
  or f15, 0, f15
  beq t10, else14
  sll t10, 3, f11
  br join15
else14:
  li a2, 430
join15:
  stq t8, 64(sp)
  subq t0, f11, t8
  addq f11, f11, a2
  mov t8, t8
  li t0, 982
  and t0, f11, t10
  li t10, 75
  mov t8, f11
  ldq t0, 8(sp)
  li t0, 110
  sll f11, 36, f11
  addq f11, 8, a2
  ldq t0, 24(sp)
  li a2, 675
  mov t10, f11
  stq t10, 8(sp)
  subq a2, t0, a2
  mov t8, t10
  ldq f11, 32(sp)
  ldq t10, 16(sp)
  cmpeq f11, 41, a2
  ldq f11, 32(sp)
  sll a2, 30, a2
  li t8, 435
  ldq t8, 24(sp)
  stq t10, 48(sp)
  sll f11, 7, t0
  addq a2, 25, t10
  stq f11, 64(sp)
  stq f11, 64(sp)
  mov f11, t10
  ldq a2, 40(sp)
  xor f11, t10, t0
  and f11, f11, a2
  subq f11, 5, t8
  and t8, a2, t0
  and t0, t0, t0
  ldq t10, 16(sp)
  ldq a2, 64(sp)
  addq t8, 4, a2
  mov a2, t0
r1$epi0:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
.end

.routine r2
.entry r2$entry
r2$entry:
  lda sp, -184(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq t3, 32(sp)
  bsr ra, r11
  bsr ra, r17
  beq a2, else0
  addq f12, 31, f10
  br join1
else0:
  ldq t3, 40(sp)
join1:
  bsr ra, r15
  li t3, 177
  li t11, 16
  stq t11, 120(sp)
sw2:
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  ble t11, swend3
  switch t11, [arm4, arm5, arm6, arm7, arm8, arm9, arm10, arm11, arm12, arm13]
arm4:
  bsr ra, r8
  mov f11, a2
  br sw2
arm5:
  bsr ra, r12
  addq a4, a4, a3
  br sw2
arm6:
  bsr ra, r5
  cmpeq f11, 33, a3
  br sw2
arm7:
  ldq f10, 56(sp)
  br sw2
arm8:
  bsr ra, r10
  cmpeq a3, 37, a2
  br sw2
arm9:
  bsr ra, r3
  stq a4, 16(sp)
  br sw2
arm10:
  and t3, f11, a2
  br sw2
arm11:
  bsr ra, r13
  xor f12, a3, a4
  br sw2
arm12:
  bsr ra, r8
  ldq a4, 48(sp)
  br sw2
arm13:
  bsr ra, r13
  ldq a2, 16(sp)
  br sw2
swend3:
  blt f10, else14
  mov f12, a3
  br join15
else14:
  ldq a3, 24(sp)
join15:
  blt f12, else16
  cmplt a3, f12, a4
  br join17
else16:
  cmpeq f11, 5, t3
join17:
  beq f10, else18
  xor a3, a4, a3
  br join19
else18:
  sll a2, 33, f10
join19:
  bge t3, else20
  addq a2, 45, f11
  br join21
else20:
  stq a2, 24(sp)
join21:
  li t11, 4
  stq t11, 136(sp)
loop22:
  addq a3, a4, f11
  blt a4, lskip23
  bsr ra, r5
lskip23:
  bge f12, lskip24
  bsr ra, r17
lskip24:
  blt f10, lskip25
  bsr ra, r16
lskip25:
  ldq t11, 136(sp)
  subq t11, 1, t11
  stq t11, 136(sp)
  bgt t11, loop22
  beq a4, else26
  addq f12, a2, t3
  br join27
else26:
  ldq f11, 8(sp)
join27:
  li pv, 20971520
  jsr ra, (pv)
  li v0, 61
  li t0, 22
  li t1, 16
  li t2, 50
  li t3, 58
  li t4, 98
  li t5, 60
  li t6, 39
  li t7, 84
  li t8, 97
  li t10, 82
  li a0, 54
  li a1, 55
  li a2, 66
  li a3, 95
  li a4, 34
  li a5, 25
  li f10, 26
  li f11, 52
  li f12, 50
  li f13, 44
  li f14, 72
  li f15, 52
  li f11, 87
  li t7, 42
  li a4, 76
  li t10, 44
  mov f11, a4
  bge f11, else28
  ldq f10, 56(sp)
  br join29
else28:
  addq f10, 17, f11
join29:
  li a2, 504
  beq f11, r2$ujmp
r2$epi0:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
r2$ujmp:
  jmp (a2)
.end

.routine r3
.entry r3$entry
r3$entry:
  lda sp, -184(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  ldq a2, 24(sp)
  mov t10, f12
  bne t8, else0
  ldq f12, 32(sp)
  stq t2, 56(sp)
  br join1
else0:
  li t8, 767
join1:
  li t11, 2
  stq t11, 72(sp)
loop2:
  and a2, t2, t10
  li t10, 28
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  bgt t11, loop2
  stq f14, 88(sp)
  bsr ra, r8
  ldq f14, 88(sp)
  or f14, 0, f14
  bsr ra, r16
  mov t10, t2
  li t5, 467
  bsr ra, r15
  bne t2, else3
  addq t5, 31, a2
  stq t2, 32(sp)
  br join4
else3:
  sll t5, 49, t8
join4:
  beq t2, else5
  stq t2, 64(sp)
  br join6
else5:
  ldq t2, 24(sp)
join6:
  blt a2, else7
  ldq t10, 16(sp)
  li t8, 287
  br join8
else7:
  sll t10, 15, t2
join8:
  li t11, 13
  stq t11, 136(sp)
sw9:
  ldq t11, 136(sp)
  subq t11, 1, t11
  stq t11, 136(sp)
  ble t11, swend10
  switch t11, [arm11, arm12, arm13, arm14, arm15, arm16, arm17, arm18, arm19, arm20]
arm11:
  bsr ra, r10
  mov a2, t5
  br sw9
arm12:
  bsr ra, r16
  and t2, a2, a2
  br sw9
arm13:
  bsr ra, r12
  ldq t10, 8(sp)
  ldq f12, 40(sp)
  br sw9
arm14:
  bsr ra, r4
  and t2, f12, f12
  br sw9
arm15:
  subq t5, 63, a2
  br swend10
arm16:
  bsr ra, r8
  xor t2, t5, t2
  br sw9
arm17:
  bsr ra, r8
  stq t8, 64(sp)
  stq a2, 24(sp)
  br sw9
arm18:
  bsr ra, r14
  ldq t2, 32(sp)
  br sw9
arm19:
  bsr ra, r11
  or f12, a2, f12
  br sw9
arm20:
  bsr ra, r11
  stq f12, 40(sp)
  br sw9
swend10:
  bne t2, else21
  ldq t2, 16(sp)
  br join22
else21:
  cmplt t5, t8, t2
join22:
  bge t8, else23
  li t5, 304
  mov t2, a2
  br join24
else23:
  ldq t2, 40(sp)
  li a2, 410
join24:
  bge t10, else25
  stq f12, 16(sp)
  li t8, 969
  br join26
else25:
  mov t10, t5
join26:
  mov t10, t2
  stq f12, 56(sp)
  stq t7, 152(sp)
  bsr ra, r13
  ldq t7, 152(sp)
  or t7, 0, t7
  ldq f12, 48(sp)
  mov t2, t5
  subq t8, 40, t10
  ldq f12, 24(sp)
  addq t10, 58, a2
  mov t2, t8
  sll t10, 24, t8
  li f12, 164
  stq t10, 48(sp)
  stq a2, 24(sp)
  stq t10, 40(sp)
  ldq a2, 8(sp)
  ldq t5, 64(sp)
  or t8, t8, a2
  and f12, t5, t5
  subq t10, 9, t2
  li a2, 316
  addq t10, 41, t5
  li f12, 966
  mov f12, t10
  mov t2, t10
  sll t8, 16, f12
  ldq f12, 48(sp)
  and f12, t10, t2
  li t8, 663
  addq t8, 37, a2
  li t10, 86
  addq a2, t8, t2
  addq t8, 59, f12
  ldq t5, 16(sp)
  stq t10, 56(sp)
  ldq t5, 48(sp)
  li t2, 566
  mov f12, t2
  mov t10, f12
  stq t2, 24(sp)
  stq t10, 16(sp)
  mov a2, f12
  xor f12, t2, t2
  cmpeq a2, 26, t8
  cmplt t10, t2, t2
  ldq f12, 40(sp)
  ldq t8, 56(sp)
  subq t10, 30, t10
  ldq t5, 48(sp)
  mov f12, t2
  li t2, 929
  mov a2, a2
  mov t2, f12
  ldq t10, 64(sp)
  mov t5, a2
  cmplt a2, t5, f12
  stq t8, 8(sp)
  ldq t10, 64(sp)
  stq t10, 56(sp)
  or t2, f12, t2
  addq t8, t2, t10
  xor t8, t5, f12
  subq t2, 7, f12
  subq t10, t5, t2
  li t2, 817
  ldq t5, 40(sp)
  addq t2, 43, f12
  ldq f12, 64(sp)
  li t8, 508
  stq t5, 40(sp)
  li f12, 850
  cmpeq t8, 28, t10
  stq f12, 24(sp)
  addq a2, a2, a2
  ldq f12, 40(sp)
  stq t5, 16(sp)
  subq t2, t2, t8
  cmpeq t5, 63, t10
  sll t2, 31, t8
  addq a2, f12, t5
  ldq f12, 16(sp)
  stq a2, 48(sp)
  mov t2, t5
  mov a2, f12
  li t8, 753
  mov f12, t8
  ldq t10, 40(sp)
  ldq f12, 56(sp)
  mov t2, t2
  xor t2, t8, t2
  mov t5, a2
  stq a2, 64(sp)
  addq f12, 2, t5
  cmpeq t10, 22, t5
r3$epi0:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
.end

.routine r4
.entry r4$entry
r4$entry:
  lda sp, -200(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq t5, 40(sp)
  mov v0, a5
  li t11, 2
  stq t11, 72(sp)
loop0:
  cmpeq a5, 54, a2
  beq t5, lskip1
  bsr ra, r17
lskip1:
  blt v0, lskip2
  bsr ra, r14
lskip2:
  blt a2, lskip3
  bsr ra, r13
lskip3:
  beq a5, lskip4
  bsr ra, r13
lskip4:
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  bgt t11, loop0
  bne a5, else5
  subq t8, 61, a2
  subq t5, 34, a5
  br join6
else5:
  stq t5, 16(sp)
  ldq v0, 24(sp)
join6:
  beq f11, else7
  ldq a5, 16(sp)
  br join8
else7:
  addq t5, 38, a5
join8:
  stq v0, 64(sp)
  mov t5, t5
  blt t8, r4$epi1
  blt t5, else9
  addq t5, 35, v0
  and a5, v0, a2
  br join10
else9:
  ldq a5, 32(sp)
join10:
  cmpeq v0, 43, a5
  stq t5, 48(sp)
  beq a2, else11
  mov t5, t5
  subq t5, a5, v0
  br join12
else11:
  stq f11, 24(sp)
  subq t5, 0, t5
join12:
  li t11, 4
  stq t11, 88(sp)
loop13:
  mov v0, a2
  bge v0, lskip14
  bsr ra, r12
lskip14:
  bge a2, lskip15
  bsr ra, r13
lskip15:
  beq t8, lskip16
  bsr ra, r16
lskip16:
  blt a2, lskip17
  bsr ra, r12
lskip17:
  bge a2, lskip18
  bsr ra, r8
lskip18:
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop13
  blt t5, else19
  mov v0, t8
  br join20
else19:
  stq f11, 24(sp)
  li f11, 670
join20:
  bge a2, else21
  addq t5, a5, t8
  li t8, 375
  br join22
else21:
  addq t8, 42, a2
  mov t8, t5
join22:
  bsr ra, r15
  li t11, 13
  stq t11, 120(sp)
sw23:
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  ble t11, swend24
  switch t11, [arm25, arm26, arm27, arm28, arm29, arm30, arm31, arm32, arm33, arm34]
arm25:
  bsr ra, r6
  li a5, 754
  xor t8, t8, v0
  br sw23
arm26:
  bsr ra, r6
  mov t5, a2
  br sw23
arm27:
  bsr ra, r17
  sll a2, 24, f11
  br sw23
arm28:
  bsr ra, r8
  stq a2, 40(sp)
  br swend24
arm29:
  bsr ra, r7
  subq f11, 57, t8
  addq t5, a2, t5
  br sw23
arm30:
  bsr ra, r5
  ldq a2, 48(sp)
  li t8, 194
  br sw23
arm31:
  bsr ra, r14
  cmpeq a2, 62, a5
  subq t8, 52, v0
  br sw23
arm32:
  bsr ra, r16
  ldq t8, 16(sp)
  xor v0, v0, a5
  br sw23
arm33:
  ldq f11, 64(sp)
  or a5, v0, t8
  br sw23
arm34:
  bsr ra, r17
  mov a5, a5
  br sw23
swend24:
  bsr ra, r8
  stq f14, 152(sp)
  bsr ra, r17
  ldq f14, 152(sp)
  or f14, 0, f14
  bsr ra, r5
  bne t5, else35
  subq v0, v0, t8
  br join36
else35:
  stq v0, 32(sp)
join36:
  subq t5, t5, v0
  stq t5, 56(sp)
  stq t5, 48(sp)
  addq a5, 41, a5
  li a5, 468
  li t5, 796
  ldq t5, 40(sp)
  or t5, v0, v0
  li v0, 367
  li v0, 41
  ldq a2, 32(sp)
  li a5, 455
  xor v0, v0, t8
  li t5, 631
  mov a2, f11
  stq t8, 16(sp)
  ldq a5, 8(sp)
  li v0, 723
  mov a2, f11
  sll v0, 50, t5
  ldq a2, 56(sp)
  stq f11, 64(sp)
  mov a2, a5
  mov t5, f11
  li f11, 671
  addq t5, t5, v0
  sll a5, 4, t5
  mov v0, v0
  stq t8, 56(sp)
  stq t8, 64(sp)
  mov v0, t5
  li f11, 967
  stq v0, 24(sp)
  stq a5, 24(sp)
  mov t5, a5
  cmplt t5, t5, f11
  ldq f11, 16(sp)
  sll v0, 17, t8
  stq t8, 24(sp)
  cmplt a5, a2, t5
  addq t5, t5, v0
  ldq t5, 32(sp)
  mov v0, t8
  stq a2, 64(sp)
  or a2, a5, a5
  mov t8, a5
  li f11, 682
  addq a2, f11, f11
  xor a5, t8, t8
  mov a2, a2
  addq t5, 15, a5
  mov f11, a5
  li f11, 428
  ldq a5, 8(sp)
  and a5, a2, a2
  li f11, 913
  mov f11, a2
  cmpeq t8, 27, t5
  li v0, 640
  mov t8, v0
  ldq a5, 56(sp)
  ldq a2, 8(sp)
  xor a5, t8, f11
  sll v0, 62, t8
  subq t8, 42, a2
  cmplt v0, f11, t8
  stq t8, 16(sp)
  subq t8, 53, t5
  li v0, 904
  mov f11, t5
  li t5, 704
  li v0, 968
  li t5, 56
  li a5, 475
  mov a5, a2
r4$epi0:
  ldq ra, 0(sp)
  lda sp, 200(sp)
  ret
r4$epi1:
  ldq ra, 0(sp)
  lda sp, 200(sp)
  ret
.end

.routine r5
.entry r5$entry
r5$entry:
  lda sp, -184(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  cmpeq t0, 36, t4
  stq t0, 40(sp)
  ldq a2, 8(sp)
  mov a2, f11
  bsr ra, r11
  beq t5, r5$epi1
  bsr ra, r10
  beq f11, else0
  ldq f11, 24(sp)
  ldq a2, 24(sp)
  mov f11, t6
  ldq t0, 16(sp)
  br join1
else0:
  addq t6, f11, t5
  addq f11, 2, t6
  or f11, t6, a2
  stq f11, 64(sp)
join1:
  bge f11, else2
  mov t6, a2
  sll t0, 9, t0
  ldq t6, 24(sp)
  li t5, 587
  br join3
else2:
  stq a2, 16(sp)
  ldq t5, 32(sp)
  subq t4, 60, t4
join3:
  bge t0, else4
  stq t6, 24(sp)
  br join5
else4:
  ldq t4, 32(sp)
  mov t4, t5
  mov t5, t4
join5:
  beq t4, else6
  ldq t5, 48(sp)
  ldq a2, 24(sp)
  li f11, 797
  br join7
else6:
  mov f11, t5
join7:
  beq t0, else8
  and t5, t4, a2
  br join9
else8:
  li t5, 841
  ldq a2, 48(sp)
  ldq a2, 64(sp)
  mov t5, t5
join9:
  mov a2, t4
  ldq a2, 32(sp)
  subq f11, f11, f11
  mov t0, t4
  blt t0, else10
  li t6, 985
  stq t6, 16(sp)
  li f11, 584
  li f11, 779
  br join11
else10:
  addq t4, t5, f11
  mov t0, t4
join11:
  bsr ra, r12
  blt t6, else12
  li t6, 404
  li t4, 656
  stq t0, 32(sp)
  stq t5, 16(sp)
  br join13
else12:
  ldq a2, 64(sp)
  cmpeq t0, 44, f11
  ldq t5, 40(sp)
  li t6, 80
join13:
  li t11, 14
  stq t11, 120(sp)
sw14:
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  ble t11, swend15
  switch t11, [arm16, arm17, arm18, arm19, arm20, arm21, arm22, arm23, arm24, arm25]
arm16:
  bsr ra, r8
  mov a2, f11
  cmplt a2, f11, t0
  cmpeq t6, 25, t0
  cmpeq t6, 53, t0
  br sw14
arm17:
  subq f11, 8, t4
  ldq t4, 64(sp)
  addq t5, 47, t0
  br sw14
arm18:
  bsr ra, r13
  li f11, 416
  li a2, 596
  br sw14
arm19:
  bsr ra, r15
  mov t0, t5
  br swend15
arm20:
  ldq t4, 48(sp)
  stq t5, 32(sp)
  li a2, 937
  br sw14
arm21:
  bsr ra, r10
  stq f11, 56(sp)
  subq t5, 62, t4
  addq t5, 47, a2
  br sw14
arm22:
  bsr ra, r8
  ldq t4, 8(sp)
  br sw14
arm23:
  sll t5, 20, t4
  cmpeq a2, 24, a2
  addq a2, 16, f11
  br sw14
arm24:
  bsr ra, r16
  ldq t0, 48(sp)
  br sw14
arm25:
  addq a2, a2, t4
  mov t6, f11
  br sw14
swend15:
  stq t0, 64(sp)
  li t4, 744
  mov f11, t5
  mov f11, f11
  bsr ra, r12
  li t11, 4
  stq t11, 152(sp)
loop26:
  mov a2, t0
  stq t6, 56(sp)
  beq t6, lskip27
  bsr ra, r10
lskip27:
  blt t0, lskip28
  bsr ra, r9
lskip28:
  blt t4, lskip29
  bsr ra, r12
lskip29:
  ldq t11, 152(sp)
  subq t11, 1, t11
  stq t11, 152(sp)
  bgt t11, loop26
  cmpeq t4, 29, t0
  xor t6, t5, f11
  cmpeq t6, 2, t4
  mov a2, t5
  and f11, t6, f11
  li a2, 375
  cmplt t6, a2, t6
  sll f11, 7, f11
  mov t4, a2
  stq t4, 48(sp)
  li f11, 692
  subq f11, 47, t0
  subq t6, t0, t4
  stq t6, 32(sp)
  ldq f11, 40(sp)
  stq t6, 24(sp)
  mov a2, t5
  addq f11, 24, f11
  li t6, 176
  li f11, 737
  mov t4, t5
  ldq t5, 32(sp)
  mov t6, t4
  li f11, 40
  li t4, 597
  stq t4, 24(sp)
  stq f11, 24(sp)
  ldq t6, 64(sp)
  cmplt f11, a2, t5
  mov a2, t0
  stq a2, 56(sp)
  cmpeq t0, 58, f11
  li t5, 632
  ldq a2, 32(sp)
  stq t5, 24(sp)
  cmpeq f11, 24, a2
  subq t6, 8, t0
  ldq a2, 8(sp)
  li a2, 553
  ldq t5, 56(sp)
  ldq t5, 24(sp)
  li a2, 945
  mov t6, t0
  ldq a2, 16(sp)
  subq t4, f11, t0
  ldq a2, 48(sp)
  li t5, 750
  subq t6, t5, f11
  cmpeq f11, 34, t6
  li t5, 29
  mov t4, t5
  mov t4, a2
  subq t0, a2, t4
  addq t0, t5, t0
  and t6, t0, a2
  mov t6, t0
  xor a2, t5, t4
  mov t4, t4
  subq a2, t4, t4
  sll t0, 48, t4
  mov t4, t4
  li t0, 943
  cmpeq t4, 56, f11
  ldq t6, 64(sp)
  mov t5, t4
  subq a2, 41, a2
  ldq f11, 32(sp)
  li f11, 169
  li t5, 994
  li f11, 376
  ldq f11, 16(sp)
  li t6, 727
  ldq t6, 16(sp)
  addq t5, 53, t6
  li f11, 892
  addq t0, 51, a2
  stq t0, 40(sp)
  ldq t5, 8(sp)
  li t0, 215
  li t4, 545
  stq t5, 8(sp)
  sll a2, 2, t6
  li t0, 492
  li t0, 332
  li t6, 777
  ldq f11, 48(sp)
  subq t5, t4, a2
  li t6, 619
  ldq t4, 24(sp)
  sll a2, 43, t6
  ldq f11, 40(sp)
  li a2, 120
  ldq a2, 48(sp)
  li t6, 419
r5$epi0:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
r5$epi1:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
.end

.routine r6
.entry r6$entry
r6$entry:
  lda sp, -216(sp)
  stq s3, 0(sp)
  stq s1, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  li s3, 74
  li s1, 30
  and f13, t7, a2
  bne t5, else0
  xor t5, f10, t7
  br join1
else0:
  li t7, 793
join1:
  blt f11, r6$epi1
  bsr ra, r14
  blt t7, else2
  mov f10, f10
  br join3
else2:
  sll a1, 52, f13
join3:
  bne a5, else4
  cmplt a5, f13, t5
  br join5
else4:
  ldq f11, 64(sp)
join5:
  bne a1, else6
  stq t5, 40(sp)
  br join7
else6:
  li f11, 182
join7:
  blt f10, else8
  ldq f10, 64(sp)
  br join9
else8:
  ldq f10, 40(sp)
join9:
  ldq f10, 64(sp)
  blt a1, else10
  stq a2, 72(sp)
  br join11
else10:
  addq t5, t7, t7
join11:
  li t11, 3
  stq t11, 104(sp)
loop12:
  addq t7, a1, f10
  ldq t11, 104(sp)
  subq t11, 1, t11
  stq t11, 104(sp)
  bgt t11, loop12
  bsr ra, r11
  bsr ra, r9
  bsr ra, r17
  mov f13, f13
  li t11, 3
  stq t11, 168(sp)
loop13:
  mov t5, a5
  beq t5, lskip14
  bsr ra, r10
lskip14:
  blt t7, lskip15
  bsr ra, r17
lskip15:
  ldq t11, 168(sp)
  subq t11, 1, t11
  stq t11, 168(sp)
  bgt t11, loop13
  li t11, 12
  stq t11, 184(sp)
sw16:
  ldq t11, 184(sp)
  subq t11, 1, t11
  stq t11, 184(sp)
  ble t11, swend17
  switch t11, [arm18, arm19, arm20, arm21, arm22, arm23, arm24, arm25, arm26, arm27]
arm18:
  bsr ra, r13
  xor f10, a1, a5
  br sw16
arm19:
  bsr ra, r8
  addq a2, 38, f11
  br sw16
arm20:
  bsr ra, r15
  ldq t5, 56(sp)
  br sw16
arm21:
  bsr ra, r13
  cmpeq f11, 11, a5
  br sw16
arm22:
  bsr ra, r17
  stq t5, 48(sp)
  br sw16
arm23:
  bsr ra, r10
  ldq a2, 80(sp)
  br sw16
arm24:
  mov v0, a1
  br sw16
arm25:
  bsr ra, r4
  xor a2, t7, f11
  br sw16
arm26:
  bsr ra, r9
  ldq t5, 80(sp)
  br sw16
arm27:
  sll a1, 23, a2
  br sw16
swend17:
  bne v0, else28
  li f11, 117
  br join29
else28:
  ldq f13, 48(sp)
join29:
  subq t5, 28, t5
  li t7, 335
  mov a1, a2
  stq v0, 72(sp)
  li a5, 390
  subq t5, 41, a2
  li f13, 638
  and f11, f13, a2
  li f10, 454
  subq f11, f10, a1
  stq a2, 64(sp)
  stq f13, 48(sp)
  stq t5, 24(sp)
  xor t7, a2, t7
  subq f11, f11, f13
  stq a2, 48(sp)
  and t7, f13, f11
r6$epi0:
  ldq s3, 0(sp)
  ldq s1, 8(sp)
  ldq ra, 16(sp)
  lda sp, 216(sp)
  ret
r6$epi1:
  ldq s3, 0(sp)
  ldq s1, 8(sp)
  ldq ra, 16(sp)
  lda sp, 216(sp)
  ret
.end

.routine r7
.entry r7$entry
r7$entry:
  lda sp, -184(sp)
  stq s2, 0(sp)
  stq s3, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  ldq a2, 32(sp)
  subq a5, 15, a1
  bsr ra, r8
  blt a2, r7$epi1
  bsr ra, r17
  bne a2, else0
  and f10, t7, a2
  br join1
else0:
  li a5, 316
join1:
  beq f10, else2
  mov a2, f11
  br join3
else2:
  mov f11, f10
  stq a5, 32(sp)
join3:
  bne t8, else4
  sll a1, 59, t8
  stq a1, 72(sp)
  br join5
else4:
  addq f10, 20, t4
join5:
  sll t7, 49, t8
  ldq a3, 24(sp)
  sll t7, 61, a3
  subq a3, 36, a5
  stq a4, 120(sp)
  bsr ra, r14
  ldq a4, 120(sp)
  or a4, 0, a4
  blt t4, else6
  addq t8, 26, f10
  br join7
else6:
  li a3, 95
  addq a1, 35, f11
join7:
  bge a3, else8
  mov t8, a3
  br join9
else8:
  li f10, 88
  stq t7, 32(sp)
join9:
  bne t7, else10
  ldq f11, 72(sp)
  mov f11, a2
  br join11
else10:
  subq f11, 43, t8
join11:
  bge t8, else12
  ldq a3, 56(sp)
  ldq a1, 48(sp)
  br join13
else12:
  mov f10, f11
  li t8, 878
join13:
  stq a4, 136(sp)
  bsr ra, r8
  ldq a4, 136(sp)
  or a4, 0, a4
  li t11, 4
  stq t11, 152(sp)
loop14:
  stq t8, 48(sp)
  or a5, a3, t8
  ldq t11, 152(sp)
  subq t11, 1, t11
  stq t11, 152(sp)
  bgt t11, loop14
  li t4, 275
  and t4, a2, a1
  stq f10, 40(sp)
  mov f10, a2
  xor t7, a3, a5
  li f10, 396
  cmpeq a5, 60, a2
  ldq t7, 80(sp)
  stq t8, 80(sp)
  li a1, 848
  li t7, 940
  stq a3, 72(sp)
  ldq t4, 80(sp)
  sll t8, 42, f11
  xor f10, t4, t4
  mov a1, a5
  li a1, 581
  xor t8, a5, a1
  li t4, 528
  xor a1, t7, a3
  stq f11, 72(sp)
  li a3, 902
  ldq f11, 80(sp)
  li f10, 721
  sll a3, 30, t7
  li f11, 115
  ldq a1, 80(sp)
  ldq t7, 80(sp)
  stq a1, 56(sp)
  ldq t8, 24(sp)
  xor t7, a3, t7
  li a3, 101
  mov t8, a3
  stq a1, 40(sp)
  ldq t7, 80(sp)
  and a5, t8, a5
  subq a2, 42, a2
  ldq a5, 48(sp)
  xor a5, t7, t7
  mov t7, a5
  li t4, 221
  ldq a2, 48(sp)
  stq t8, 72(sp)
  li a3, 142
  li t8, 338
  mov a1, f10
  cmplt t7, t4, a3
  ldq f10, 48(sp)
  addq t4, 15, a3
  ldq f11, 24(sp)
  cmpeq a3, 13, t8
  stq a5, 64(sp)
  ldq t4, 56(sp)
  ldq a2, 72(sp)
  ldq f10, 40(sp)
  li f11, 83
  ldq a3, 40(sp)
  li a2, 19
  subq a5, t4, t7
  stq a5, 32(sp)
  and t8, t7, a5
  li a1, 668
r7$epi0:
  ldq s2, 0(sp)
  ldq s3, 8(sp)
  ldq ra, 16(sp)
  lda sp, 184(sp)
  ret
r7$epi1:
  ldq s2, 0(sp)
  ldq s3, 8(sp)
  ldq ra, 16(sp)
  lda sp, 184(sp)
  ret
.end

.routine r8
.entry r8$entry
r8$entry:
  lda sp, -200(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  addq a2, 27, v0
  mov a0, a0
  mov a0, v0
  li t11, 10
  stq t11, 72(sp)
sw0:
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  ble t11, swend1
  switch t11, [arm2, arm3, arm4, arm5, arm6, arm7, arm8, arm9, arm10, arm11]
arm2:
  bsr ra, r17
  ldq t0, 16(sp)
  br sw0
arm3:
  bsr ra, r16
  subq a2, 57, t0
  cmpeq f11, 39, v0
  br sw0
arm4:
  bsr ra, r17
  and v0, v0, a0
  mov f11, t0
  br sw0
arm5:
  bsr ra, r11
  li t0, 848
  ldq v0, 64(sp)
  li v0, 363
  br sw0
arm6:
  bsr ra, r13
  xor f11, f11, a0
  br sw0
arm7:
  ldq t0, 32(sp)
  ldq a0, 40(sp)
  xor a0, a0, f11
  br sw0
arm8:
  mov a2, a0
  and v0, a0, f11
  br sw0
arm9:
  bsr ra, r16
  subq t0, a0, v0
  li t0, 820
  cmpeq f11, 35, v0
  br sw0
arm10:
  bsr ra, r11
  subq f11, f11, a2
  cmplt a0, a0, v0
  stq t0, 48(sp)
  br sw0
arm11:
  bsr ra, r11
  ldq a2, 40(sp)
  addq a0, 22, f11
  ldq f11, 40(sp)
  br sw0
swend1:
  blt v0, else12
  ldq a2, 24(sp)
  mov a0, a0
  mov t0, t0
  br join13
else12:
  ldq f11, 24(sp)
join13:
  li t11, 4
  stq t11, 88(sp)
loop14:
  mov t0, v0
  ldq f11, 48(sp)
  mov t0, v0
  beq a0, lskip15
  bsr ra, r16
lskip15:
  beq f11, lskip16
  bsr ra, r11
lskip16:
  bge t0, lskip17
  bsr ra, r11
lskip17:
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop14
  bsr ra, r13
  bsr ra, r11
  blt v0, else18
  stq f11, 56(sp)
  cmpeq t0, 54, t0
  stq a0, 32(sp)
  br join19
else18:
  li v0, 198
  cmplt a2, v0, a2
  mov a2, t0
join19:
  blt a2, else20
  cmplt a2, v0, v0
  ldq a2, 40(sp)
  mov a2, a2
  br join21
else20:
  mov f11, t0
  mov a2, v0
join21:
  mov f11, a0
  subq f11, v0, f11
  stq t0, 16(sp)
  bne f11, else22
  subq a0, 33, t0
  sll a2, 15, v0
  br join23
else22:
  li t0, 744
  xor a2, t0, t0
join23:
  bsr ra, r15
  beq v0, else24
  mov v0, v0
  br join25
else24:
  and t0, a0, a2
join25:
  stq t10, 152(sp)
  bsr ra, r13
  ldq t10, 152(sp)
  or t10, 0, t10
  bne f11, else26
  li a0, 506
  li a2, 942
  ldq a2, 56(sp)
  br join27
else26:
  ldq f11, 40(sp)
  li a0, 903
join27:
  blt a2, else28
  stq a2, 24(sp)
  mov v0, a2
  stq a0, 16(sp)
  br join29
else28:
  addq a0, a0, a2
  mov a0, f11
  subq f11, a2, v0
join29:
  mov v0, t0
  stq a2, 24(sp)
  or a2, a2, f11
  li t11, 2
  stq t11, 168(sp)
loop30:
  stq v0, 64(sp)
  ldq t11, 168(sp)
  subq t11, 1, t11
  stq t11, 168(sp)
  bgt t11, loop30
  or f11, a2, t0
  xor t0, f11, f11
  mov a2, f11
  addq f11, 17, a0
  mov a0, f11
  li a2, 864
  addq v0, a2, a0
  mov a0, f11
  stq f11, 64(sp)
  li a2, 577
  stq a0, 48(sp)
  subq t0, 35, f11
  ldq a2, 56(sp)
  subq a0, 52, v0
  mov f11, f11
  li f11, 333
  subq a0, 42, a0
  stq a2, 64(sp)
  li t0, 556
  cmpeq v0, 43, t0
  cmplt t0, a2, a0
  addq a2, 10, a0
  li a0, 242
  mov v0, f11
  subq a0, 39, f11
  or a2, t0, f11
  li f11, 32
  ldq v0, 24(sp)
  li t0, 605
  sll v0, 48, t0
  or a0, f11, f11
  li v0, 402
  stq v0, 32(sp)
  subq t0, v0, v0
  li a2, 260
  stq a2, 16(sp)
  mov t0, t0
  ldq v0, 32(sp)
  mov f11, f11
  mov f11, t0
  mov t0, f11
  li f11, 372
  cmplt t0, a2, a2
  subq a2, v0, v0
  stq f11, 24(sp)
  li a2, 190
  mov v0, a2
  subq a2, 55, f11
  addq v0, 23, f11
  li f11, 802
  ldq t0, 16(sp)
  mov a2, a0
  stq v0, 8(sp)
  addq v0, f11, a2
  li a0, 738
  sll a0, 47, t0
  li f11, 25
  li f11, 608
  mov f11, t0
  subq t0, 62, f11
  or t0, a0, f11
  mov f11, a2
  ldq a2, 64(sp)
  stq v0, 8(sp)
  and a0, f11, v0
  ldq t0, 64(sp)
  stq a2, 8(sp)
  ldq t0, 64(sp)
  mov f11, t0
  stq a2, 64(sp)
  stq f11, 16(sp)
  addq a2, 23, f11
  mov a0, v0
  subq a2, 38, a2
  subq a2, 11, a0
  and a0, a0, a0
  stq v0, 16(sp)
  ldq f11, 24(sp)
  ldq v0, 32(sp)
  ldq a0, 64(sp)
  sll a2, 0, a2
  addq f11, 55, a2
  li f11, 766
  or t0, v0, a2
  stq t0, 64(sp)
  mov f11, a0
  ldq v0, 56(sp)
  stq t0, 24(sp)
  ldq t0, 48(sp)
  li a0, 43
  li t0, 503
  stq f11, 64(sp)
  li t0, 215
  li f11, 397
  subq v0, 53, f11
  stq a0, 8(sp)
  mov f11, f11
  mov f11, f11
  subq a0, 45, v0
  sll t0, 11, a2
  xor f11, v0, t0
  mov v0, v0
  sll a2, 35, v0
  sll t0, 17, t0
  cmpeq f11, 39, v0
  mov v0, t0
  stq f11, 56(sp)
  li v0, 108
r8$epi0:
  ldq ra, 0(sp)
  lda sp, 200(sp)
  ret
.end

.routine r9
.entry r9$entry
r9$entry:
  lda sp, -200(sp)
  stq s0, 0(sp)
  stq s3, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  li s0, 80
  or a1, t8, f13
  ldq t2, 24(sp)
  bsr ra, r15
  bsr ra, r17
  blt a4, else0
  sll t3, 3, a4
  cmpeq a2, 10, a1
  br join1
else0:
  mov t2, t3
join1:
  li t11, 12
  stq t11, 120(sp)
sw2:
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  ble t11, swend3
  switch t11, [arm4, arm5, arm6, arm7, arm8, arm9, arm10, arm11, arm12, arm13]
arm4:
  bsr ra, r12
  li a2, 61
  xor t1, a2, a1
  br sw2
arm5:
  bsr ra, r15
  mov a1, t2
  sll t2, 1, t2
  br sw2
arm6:
  bsr ra, r12
  ldq t8, 40(sp)
  mov t1, f13
  br sw2
arm7:
  bsr ra, r12
  sll a2, 39, a2
  br sw2
arm8:
  bsr ra, r17
  sll a2, 63, t8
  mov f13, a4
  br sw2
arm9:
  bsr ra, r11
  addq t3, 4, a2
  br sw2
arm10:
  bsr ra, r13
  ldq t3, 48(sp)
  cmpeq t8, 29, t3
  br sw2
arm11:
  bsr ra, r14
  mov t2, t2
  br swend3
arm12:
  bsr ra, r14
  addq a4, t3, t1
  br sw2
arm13:
  bsr ra, r14
  mov f13, t2
  br sw2
swend3:
  beq a1, else14
  addq a4, t2, t1
  br join15
else14:
  and t1, t2, a1
  mov t3, t1
join15:
  bge a1, else16
  mov f13, f13
  br join17
else16:
  stq t8, 64(sp)
  sll a1, 29, a1
join17:
  bsr ra, r13
  li t11, 5
  stq t11, 152(sp)
loop18:
  cmpeq t3, 12, t3
  ldq t11, 152(sp)
  subq t11, 1, t11
  stq t11, 152(sp)
  bgt t11, loop18
  mov t2, t3
  cmpeq t1, 56, t8
  bge t1, else19
  ldq a1, 40(sp)
  sll t3, 17, t2
  br join20
else19:
  li t3, 990
join20:
  blt a4, else21
  li t3, 235
  li t8, 67
  br join22
else21:
  li a2, 534
  xor f13, a1, f13
join22:
  stq t10, 168(sp)
  bsr ra, r12
  ldq t10, 168(sp)
  or t10, 0, t10
  bne t3, else23
  mov t1, t3
  or t1, a2, t8
  br join24
else23:
  ldq t3, 24(sp)
join24:
  addq a4, t2, a1
  li a2, 982
  bge t8, else25
  mov a4, a1
  br join26
else25:
  cmpeq t1, 10, t1
  li t1, 972
join26:
  mov t3, t2
  stq a1, 24(sp)
  or t2, a4, t2
  ldq t1, 80(sp)
  cmplt t8, t1, a1
  mov t1, t8
  li t2, 270
  sll t8, 63, t3
  li t8, 409
  li t1, 968
  subq a4, f13, t2
  addq a1, 63, f13
  cmpeq t3, 32, t8
  mov f13, a4
  addq a4, t2, a1
  ldq t1, 24(sp)
  xor t2, f13, a4
  stq t3, 48(sp)
  cmpeq f13, 4, f13
  cmplt a2, a1, t3
  sll a2, 6, a1
  subq a4, 14, t1
  or t1, t2, a4
  cmpeq t8, 28, t8
  cmplt t2, t3, a4
  and t8, t2, f13
  cmplt f13, t3, t3
  cmpeq t8, 7, a2
  and t3, t8, t8
  subq t1, 40, a1
  cmpeq a1, 28, t1
  subq a2, 53, a1
  stq a2, 80(sp)
  stq a1, 40(sp)
  mov t1, t1
  mov a1, t2
  stq a1, 64(sp)
  mov t3, a1
  sll t1, 18, a1
  mov a1, t3
  ldq t8, 56(sp)
  or f13, t3, a1
  ldq t8, 80(sp)
  ldq t2, 72(sp)
  li f13, 725
  stq a2, 72(sp)
  stq a1, 56(sp)
  cmplt t8, a1, a4
  stq a2, 80(sp)
  ldq f13, 48(sp)
  stq t2, 80(sp)
  and t3, f13, a1
  ldq f13, 64(sp)
  stq t2, 72(sp)
  li t1, 994
  li a2, 650
  subq t3, a2, a4
  li f13, 901
  ldq a1, 24(sp)
  stq a1, 48(sp)
  mov a1, t3
  sll t2, 61, t2
  li t2, 718
  subq t2, t3, t8
  subq a4, a2, t3
  xor t2, a4, f13
  subq t3, t8, t1
  or f13, f13, t3
  ldq t2, 32(sp)
  sll a4, 28, a4
  addq a2, 45, f13
  mov t8, t1
  or t8, a4, a2
  addq a1, f13, t8
  stq t3, 72(sp)
  stq f13, 80(sp)
  cmpeq t1, 5, a4
  and t3, f13, f13
  mov t8, t3
  addq f13, 26, t1
  stq t3, 64(sp)
  stq f13, 40(sp)
  addq t2, 4, a1
  mov a2, t3
r9$epi0:
  ldq s0, 0(sp)
  ldq s3, 8(sp)
  ldq ra, 16(sp)
  lda sp, 200(sp)
  ret
.end

.routine r10
.entry r10$entry
r10$entry:
  lda sp, -216(sp)
  stq s3, 0(sp)
  stq s2, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  li s3, 60
  li t0, 489
  stq f11, 88(sp)
  bsr ra, r11
  ldq f11, 88(sp)
  or f11, 0, f11
  li t11, 16
  stq t11, 104(sp)
sw0:
  ldq t11, 104(sp)
  subq t11, 1, t11
  stq t11, 104(sp)
  ble t11, swend1
  switch t11, [arm2, arm3, arm4, arm5, arm6, arm7, arm8, arm9, arm10, arm11]
arm2:
  or t5, t5, t2
  br sw0
arm3:
  bsr ra, r16
  subq t0, 46, a5
  br sw0
arm4:
  bsr ra, r14
  ldq a2, 56(sp)
  br sw0
arm5:
  bsr ra, r12
  cmpeq f11, 0, f11
  br sw0
arm6:
  bsr ra, r16
  stq a2, 56(sp)
  br sw0
arm7:
  bsr ra, r17
  and t5, t0, a2
  br sw0
arm8:
  bsr ra, r11
  mov a1, t5
  br sw0
arm9:
  bsr ra, r14
  li a5, 711
  br sw0
arm10:
  bsr ra, r15
  ldq t2, 64(sp)
  br sw0
arm11:
  bsr ra, r11
  sll t2, 24, a2
  br sw0
swend1:
  bne t0, else12
  addq f11, f11, t2
  br join13
else12:
  stq a5, 64(sp)
join13:
  li t11, 5
  stq t11, 120(sp)
loop14:
  mov a1, t5
  ldq t11, 120(sp)
  subq t11, 1, t11
  stq t11, 120(sp)
  bgt t11, loop14
  bne a1, else15
  addq t0, 0, t5
  br join16
else15:
  ldq t5, 64(sp)
join16:
  bsr ra, r16
  bsr ra, r17
  ldq t0, 32(sp)
  bge a5, else17
  sll f12, 49, t5
  br join18
else17:
  mov t5, t5
join18:
  bne t0, else19
  li f12, 467
  br join20
else19:
  li f12, 693
join20:
  bne t5, else21
  subq a5, t2, a1
  br join22
else21:
  stq t5, 80(sp)
join22:
  bne a2, else23
  xor a1, t2, t0
  br join24
else23:
  mov a2, f12
join24:
  beq a2, else25
  xor t2, a2, f12
  br join26
else25:
  mov a1, f12
join26:
  li t11, 2
  stq t11, 168(sp)
loop27:
  stq f12, 32(sp)
  ldq t11, 168(sp)
  subq t11, 1, t11
  stq t11, 168(sp)
  bgt t11, loop27
  bsr ra, r16
  mov a1, a5
  ldq t5, 64(sp)
  li f11, 807
  ldq f12, 40(sp)
  li a5, 299
  xor a2, t0, a5
  cmpeq a2, 58, t2
  cmplt t5, t5, t0
  ldq t5, 40(sp)
  mov t0, a5
  addq a5, a1, f12
  cmplt a5, a2, t2
  sll f11, 4, t0
  li f11, 515
  li t2, 169
  subq t0, 17, f12
  ldq t5, 56(sp)
  ldq t0, 32(sp)
  stq t5, 56(sp)
  li a5, 504
  xor f12, a1, t0
  addq f12, a2, t5
  li t2, 167
  mov a2, a2
  subq a1, 48, a1
  li t2, 298
  and t2, t2, a2
  ldq t2, 24(sp)
  stq f12, 40(sp)
  cmpeq t5, 47, t2
  mov a2, t2
  ldq a5, 24(sp)
  stq a5, 48(sp)
  xor t5, a1, t2
  mov f11, t2
  ldq t5, 48(sp)
  mov f11, t2
  cmpeq t0, 46, a1
  li f11, 92
  cmpeq t2, 44, a5
  mov t0, a5
  subq t2, 47, f11
  mov f11, t0
  li f11, 327
  stq t5, 48(sp)
  ldq f12, 64(sp)
  or t5, f12, t0
  or t0, a2, t0
r10$epi0:
  ldq s3, 0(sp)
  ldq s2, 8(sp)
  ldq ra, 16(sp)
  lda sp, 216(sp)
  ret
.end

.routine r11
.entry r11$entry
r11$entry:
  lda sp, -184(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  ldq a4, 64(sp)
  mov t5, t5
  mov t1, t8
  sll t2, 6, t5
  stq a0, 32(sp)
  ldq t4, 40(sp)
  li t11, 2
  stq t11, 72(sp)
loop0:
  li t4, 498
  mov a4, a0
  li a4, 539
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  bgt t11, loop0
  beq t8, r11$epi1
  bsr ra, r13
  li t2, 309
  stq t4, 24(sp)
  cmplt t2, t4, t2
  bne t1, else1
  li a4, 895
  ldq t6, 8(sp)
  cmpeq t4, 15, t4
  br join2
else1:
  mov t2, t4
join2:
  blt t5, else3
  ldq t1, 16(sp)
  ldq a4, 48(sp)
  br join4
else3:
  sll a0, 32, t2
  stq t5, 64(sp)
  cmpeq t6, 14, t10
join4:
  bne t1, else5
  cmpeq t2, 4, t8
  li f12, 251
  ldq t8, 48(sp)
  br join6
else5:
  ldq t2, 56(sp)
join6:
  bge a4, else7
  addq t5, 53, t6
  br join8
else7:
  addq t6, 6, f12
join8:
  bsr ra, r16
  bge t5, else9
  ldq a4, 64(sp)
  li t1, 709
  br join10
else9:
  stq a0, 64(sp)
join10:
  bsr ra, r13
  bge a0, else11
  xor t5, t8, f12
  cmpeq t10, 26, t8
  stq t5, 64(sp)
  br join12
else11:
  stq t8, 16(sp)
  mov t8, t4
  stq a0, 40(sp)
join12:
  stq f15, 136(sp)
  bsr ra, r15
  ldq f15, 136(sp)
  or f15, 0, f15
  li t11, 14
  stq t11, 152(sp)
sw13:
  ldq t11, 152(sp)
  subq t11, 1, t11
  stq t11, 152(sp)
  ble t11, swend14
  switch t11, [arm15, arm16, arm17, arm18, arm19, arm20, arm21, arm22, arm23, arm24]
arm15:
  bsr ra, r17
  or t10, t1, a0
  mov t5, t10
  br sw13
arm16:
  bsr ra, r15
  li t2, 372
  ldq a0, 16(sp)
  stq t8, 16(sp)
  br sw13
arm17:
  bsr ra, r17
  addq f12, 36, t4
  li t8, 325
  br swend14
arm18:
  bsr ra, r15
  mov f12, f12
  ldq t10, 8(sp)
  br sw13
arm19:
  bsr ra, r13
  addq t1, 59, t6
  mov t6, t8
  br sw13
arm20:
  bsr ra, r14
  ldq a4, 40(sp)
  br sw13
arm21:
  bsr ra, r15
  li a4, 642
  li t10, 821
  li t4, 398
  br sw13
arm22:
  bsr ra, r17
  mov a4, a4
  ldq t10, 8(sp)
  br sw13
arm23:
  bsr ra, r14
  sll t5, 22, t1
  addq t10, 61, t6
  li t2, 159
  br swend14
arm24:
  bsr ra, r13
  ldq t2, 64(sp)
  mov t6, t4
  br sw13
swend14:
  blt t6, else25
  subq t6, t6, t8
  li t6, 532
  br join26
else25:
  or a0, t6, t2
join26:
  ldq t2, 16(sp)
  li t1, 861
  li t1, 624
  li t4, 156
  stq t1, 64(sp)
  li f12, 116
  ldq f12, 64(sp)
  ldq t10, 32(sp)
  stq t10, 24(sp)
  li a0, 518
  mov t4, t4
  subq t10, 34, t5
  li f12, 814
  stq t2, 32(sp)
  stq t4, 64(sp)
  ldq a0, 8(sp)
  cmplt a4, a0, t5
  ldq t2, 48(sp)
  ldq t2, 56(sp)
  ldq t2, 16(sp)
  addq t10, 58, t6
  stq t1, 56(sp)
  mov t10, t8
  stq t6, 56(sp)
  li t4, 829
  ldq t1, 64(sp)
  li t5, 25
  li t8, 73
  sll t4, 14, a4
  ldq t10, 56(sp)
  mov t5, t1
  ldq a4, 64(sp)
  stq a4, 32(sp)
  ldq t8, 24(sp)
  cmpeq f12, 8, a0
  li t1, 137
  stq f12, 64(sp)
  ldq a0, 16(sp)
  ldq t10, 48(sp)
  cmpeq t1, 18, t2
  stq t5, 40(sp)
  ldq t1, 40(sp)
  ldq t2, 56(sp)
  li t5, 523
  sll t6, 4, t4
  ldq t8, 48(sp)
  subq a0, t10, t8
  ldq t8, 8(sp)
  ldq t4, 64(sp)
  li t5, 663
  ldq a4, 32(sp)
  li t1, 954
  stq t1, 40(sp)
  cmpeq t1, 7, t1
  stq t10, 40(sp)
  xor t10, f12, f12
  cmplt t8, t1, f12
  mov t6, t2
  mov a4, t1
  xor t8, a4, t6
  stq t10, 64(sp)
  xor t2, t4, t8
  addq t2, t10, t1
  subq t10, 50, t10
  li t2, 554
  ldq t4, 64(sp)
  stq t2, 16(sp)
  li t2, 793
  stq t8, 24(sp)
  li f12, 801
  ldq a4, 32(sp)
  stq t6, 24(sp)
  ldq a0, 32(sp)
  stq a0, 56(sp)
  li t4, 997
  ldq t8, 16(sp)
  mov f12, t5
  mov t1, t6
  subq t1, 40, t8
r11$epi0:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
r11$epi1:
  ldq ra, 0(sp)
  lda sp, 184(sp)
  ret
.end

.routine r12
.entry r12$entry
r12$entry:
  lda sp, -176(sp)
  stq s5, 0(sp)
  stq ra, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  li s5, 90
  cmpeq f12, 46, t3
  bge f11, else0
  mov a5, t1
  br join1
else0:
  ldq t0, 64(sp)
join1:
  blt t3, else2
  mov a5, t0
  br join3
else2:
  addq t3, 10, f11
join3:
  bge t1, else4
  li f12, 813
  br join5
else4:
  addq t1, 0, f12
join5:
  bge a5, else6
  stq a5, 40(sp)
  br join7
else6:
  mov f11, t5
join7:
  bsr ra, r16
  bsr ra, r13
  li t11, 5
  stq t11, 112(sp)
loop8:
  mov t3, a5
  blt t1, lskip9
  li pv, 20971520
  jsr ra, (pv)
  li v0, 55
  li t0, 75
  li t1, 32
  li t2, 51
  li t3, 45
  li t4, 20
  li t5, 12
  li t6, 22
  li t7, 21
  li t8, 15
  li t10, 61
  li a0, 23
  li a1, 4
  li a2, 66
  li a3, 11
  li a4, 24
  li a5, 68
  li f10, 66
  li f11, 54
  li f12, 28
  li f13, 35
  li f14, 96
  li f15, 15
  li f11, 64
  li t7, 75
  li a4, 32
  li t10, 36
lskip9:
  blt t6, lskip10
  bsr ra, r13
lskip10:
  ldq t11, 112(sp)
  subq t11, 1, t11
  stq t11, 112(sp)
  bgt t11, loop8
  bne t3, else11
  ldq f11, 64(sp)
  br join12
else11:
  stq t3, 16(sp)
join12:
  ldq f11, 64(sp)
  bsr ra, r13
  bne t6, else13
  stq t1, 56(sp)
  br join14
else13:
  cmplt t1, t0, t1
join14:
  bge a5, else15
  stq t1, 40(sp)
  br join16
else15:
  subq t1, 3, a5
join16:
  bsr ra, r14
  stq t3, 64(sp)
r12$epi0:
  ldq s5, 0(sp)
  ldq ra, 8(sp)
  lda sp, 176(sp)
  ret
.end

.routine r13
.entry r13$entry
r13$entry:
  lda sp, -184(sp)
  stq s4, 0(sp)
  stq s3, 8(sp)
  stq ra, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  li a5, 691
  bne t0, else0
  stq t0, 40(sp)
  br join1
else0:
  li t8, 82
join1:
  blt t10, r13$epi1
  li t11, 5
  stq t11, 88(sp)
loop2:
  li t8, 565
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop2
  blt a5, else3
  cmplt t8, t10, t0
  br join4
else3:
  mov t0, t10
join4:
  bsr ra, r14
  bne a0, else5
  addq t10, 44, a0
  br join6
else5:
  stq a5, 32(sp)
join6:
  bsr ra, r14
  blt t8, else7
  ldq a0, 48(sp)
  br join8
else7:
  mov t0, t8
join8:
  ldq t0, 72(sp)
  beq t10, else9
  ldq t10, 80(sp)
  br join10
else9:
  stq t0, 80(sp)
join10:
  blt t8, else11
  and a0, a0, v0
  br join12
else11:
  li t8, 826
join12:
  stq f15, 136(sp)
  bsr ra, r16
  ldq f15, 136(sp)
  or f15, 0, f15
  blt v0, else13
  li t0, 147
  br join14
else13:
  mov a5, a0
join14:
  bsr ra, r17
  li t8, 935
  stq v0, 48(sp)
  mov a0, a0
  addq v0, t8, t0
  li a5, 173
  mov t0, t8
  li a5, 583
  stq t8, 56(sp)
  mov v0, t0
  mov t0, a0
  mov t8, t10
  mov t8, t10
  ldq a5, 24(sp)
  ldq a0, 48(sp)
  xor t0, a0, t8
  mov t10, t0
  stq t10, 56(sp)
  ldq v0, 40(sp)
  stq t10, 32(sp)
  ldq t10, 40(sp)
  mov a0, t10
  mov t0, t0
  subq t10, 59, t8
  stq t8, 64(sp)
  subq t8, v0, t10
  li t8, 80
  stq t8, 72(sp)
  mov t10, v0
  stq t10, 40(sp)
  subq t8, 2, t8
  li t10, 319
  ldq t0, 24(sp)
  mov t10, t10
  li t10, 156
  cmplt t10, t10, t0
  ldq t0, 64(sp)
  addq v0, a0, t0
  subq t0, a0, v0
  ldq t8, 64(sp)
  stq v0, 56(sp)
  and t0, t8, t10
  cmpeq t10, 36, a0
  stq t0, 64(sp)
  xor t8, a0, v0
  ldq t0, 72(sp)
  addq a5, a0, a0
  stq t0, 40(sp)
  subq t10, 8, a0
  mov a5, t10
  stq t10, 48(sp)
  mov v0, t0
  stq v0, 24(sp)
  li t10, 958
  mov a0, v0
  ldq t8, 80(sp)
  mov t0, v0
  li a5, 123
  subq t10, 48, a5
  addq v0, t10, t0
  li a5, 462
  subq t8, 17, a0
  mov t10, a5
  addq t0, 6, t8
  ldq t8, 40(sp)
r13$epi0:
  ldq s4, 0(sp)
  ldq s3, 8(sp)
  ldq ra, 16(sp)
  lda sp, 184(sp)
  ret
r13$epi1:
  ldq s4, 0(sp)
  ldq s3, 8(sp)
  ldq ra, 16(sp)
  lda sp, 184(sp)
  ret
.end

.routine r14
.entry r14$entry
r14$entry:
  lda sp, -160(sp)
  stq s3, 0(sp)
  stq s1, 8(sp)
  stq s2, 16(sp)
  stq ra, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq zero, 80(sp)
  stq zero, 88(sp)
  li s3, 44
  li s1, 26
  li s2, 4
  ldq a0, 72(sp)
  li a0, 216
  or a0, t1, a0
  li t1, 997
  li t0, 264
  sll a0, 7, a0
  mov a0, t5
  mov a0, t0
  stq t5, 32(sp)
  xor t5, t1, t0
  bge t5, else0
  or t1, t1, t5
  li a0, 135
  li t0, 511
  ldq t1, 40(sp)
  br join1
else0:
  mov t5, t5
  li a0, 678
  ldq a0, 32(sp)
join1:
  beq t5, else2
  ldq t1, 80(sp)
  br join3
else2:
  stq t5, 64(sp)
join3:
  beq t5, else4
  stq t1, 56(sp)
  stq t1, 64(sp)
  addq t1, t5, t5
  mov a0, t1
  stq t0, 88(sp)
  br join5
else4:
  mov t1, t0
  mov t1, a0
join5:
  bge t5, else6
  subq t5, 41, t0
  ldq a0, 72(sp)
  li t1, 96
  mov t0, t0
  sll a0, 11, t5
  br join7
else6:
  subq a0, 17, t1
  sll a0, 59, t5
  ldq t1, 72(sp)
join7:
  sll a0, 22, a0
  mov t5, t5
  or t1, t5, t1
  mov t5, t0
  mov a0, a0
  li t11, 3
  stq t11, 96(sp)
loop8:
  cmpeq t1, 52, t0
  ldq t5, 48(sp)
  li t5, 528
  ldq a0, 88(sp)
  ldq t11, 96(sp)
  subq t11, 1, t11
  stq t11, 96(sp)
  bgt t11, loop8
  beq a0, else9
  sll t1, 54, t5
  ldq a0, 40(sp)
  sll a0, 22, a0
  xor a0, a0, t1
  br join10
else9:
  cmpeq t5, 35, t0
  subq t5, 48, a0
  cmpeq t5, 39, a0
  stq t1, 56(sp)
join10:
  li t11, 3
  stq t11, 112(sp)
loop11:
  mov a0, t5
  ldq a0, 32(sp)
  mov t1, a0
  cmpeq t1, 11, t5
  mov t0, a0
  ldq t11, 112(sp)
  subq t11, 1, t11
  stq t11, 112(sp)
  bgt t11, loop11
  blt t5, else12
  stq t0, 88(sp)
  stq t0, 48(sp)
  stq t5, 64(sp)
  br join13
else12:
  subq t0, 51, t5
  cmplt t1, t5, t0
  and a0, t0, a0
  addq a0, t5, t0
join13:
  bne t5, else14
  li t1, 86
  br join15
else14:
  stq t1, 80(sp)
  mov t1, a0
  li t0, 177
join15:
  li t11, 17
  stq t11, 128(sp)
sw16:
  ldq t11, 128(sp)
  subq t11, 1, t11
  stq t11, 128(sp)
  ble t11, swend17
  switch t11, [arm18, arm19, arm20, arm21, arm22, arm23, arm24, arm25, arm26, arm27]
arm18:
  stq t1, 32(sp)
  stq t5, 48(sp)
  addq a0, 15, t1
  br sw16
arm19:
  li a0, 892
  stq t0, 72(sp)
  ldq a0, 88(sp)
  and t0, a0, t1
  cmplt a0, t1, t0
  br sw16
arm20:
  stq t0, 72(sp)
  li t5, 872
  mov t1, t5
  mov a0, t5
  br swend17
arm21:
  ldq a0, 80(sp)
  stq a0, 56(sp)
  br sw16
arm22:
  li t1, 576
  br sw16
arm23:
  subq a0, 21, t5
  or t1, t0, t1
  ldq t1, 64(sp)
  br sw16
arm24:
  ldq a0, 56(sp)
  br sw16
arm25:
  ldq t1, 40(sp)
  stq t5, 56(sp)
  cmpeq t5, 56, t5
  br sw16
arm26:
  addq a0, 52, a0
  ldq t1, 80(sp)
  addq t0, t5, a0
  ldq a0, 64(sp)
  or t5, a0, a0
  br sw16
arm27:
  stq a0, 40(sp)
  li t1, 366
  li t5, 830
  br swend17
swend17:
  and t1, t5, a0
  subq a0, t1, t5
  li t5, 951
  cmplt t5, t5, t0
  xor t5, t5, t1
  li t1, 665
  stq t0, 72(sp)
  sll t1, 48, t0
  ldq t0, 48(sp)
  stq a0, 80(sp)
  ldq t1, 64(sp)
  li a0, 121
  ldq a0, 72(sp)
  stq t0, 40(sp)
  li t5, 697
  ldq t0, 72(sp)
  stq a0, 48(sp)
  ldq a0, 72(sp)
  stq a0, 56(sp)
  stq t5, 48(sp)
  subq t5, 27, t0
  li t1, 529
  mov t0, a0
  addq t1, 60, t0
  subq t0, 5, t0
  mov t5, t1
  stq t5, 72(sp)
  li t0, 369
  stq t5, 80(sp)
  xor t5, t0, a0
  li t5, 471
  or a0, t5, t5
  mov t0, a0
  mov t1, t0
  stq t5, 64(sp)
  li a0, 126
  stq t0, 48(sp)
  mov t5, t5
  mov t1, t5
  li t1, 999
  ldq t1, 88(sp)
  mov t1, t5
  stq t5, 32(sp)
  stq t5, 32(sp)
  sll t5, 36, t1
  mov t0, t5
  li t1, 205
  stq t1, 88(sp)
  li a0, 652
  cmpeq t1, 28, t1
  li t5, 266
  li t1, 152
  mov a0, t0
  sll t1, 54, t5
  cmpeq t5, 22, a0
  subq t1, 39, t5
  li t5, 70
  sll t5, 32, t1
  stq t5, 72(sp)
  li t5, 23
  stq a0, 64(sp)
  xor t1, a0, a0
  stq t5, 64(sp)
  mov t5, a0
  ldq t0, 56(sp)
  addq t0, 34, t0
  subq t5, 12, a0
  li t5, 863
  stq t0, 32(sp)
  subq a0, t1, t1
  mov a0, t1
  mov a0, t0
  sll t1, 55, a0
  cmpeq t0, 50, t5
  ldq t1, 72(sp)
  mov a0, t5
  li t1, 24
  li t1, 992
  ldq a0, 32(sp)
  stq t5, 40(sp)
  ldq t0, 72(sp)
  mov t5, t5
  stq t1, 72(sp)
  li a0, 941
  li t1, 753
  xor t0, a0, a0
  ldq t5, 72(sp)
r14$epi0:
  ldq s3, 0(sp)
  ldq s1, 8(sp)
  ldq s2, 16(sp)
  ldq ra, 24(sp)
  lda sp, 160(sp)
  ret
.end

.routine r15
.entry r15$entry
r15$entry:
  lda sp, -120(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  li a0, 532
  beq t1, else0
  mov f13, t1
  br join1
else0:
  ldq f13, 32(sp)
join1:
  bge a0, else2
  mov a0, t1
  br join3
else2:
  ldq t1, 16(sp)
join3:
  blt f13, r15$epi1
  beq f13, else4
  ldq t1, 64(sp)
  br join5
else4:
  stq f13, 56(sp)
join5:
  li t11, 2
  stq t11, 72(sp)
loop6:
  ldq a0, 32(sp)
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  bgt t11, loop6
  beq a0, else7
  addq t1, f13, f13
  br join8
else7:
  cmplt a0, t1, t1
join8:
  mov f13, a0
  beq t1, else9
  li t1, 477
  br join10
else9:
  ldq t1, 48(sp)
join10:
  li t1, 721
  blt a0, else11
  ldq a0, 56(sp)
  br join12
else11:
  li a0, 725
join12:
  li t11, 5
  stq t11, 88(sp)
loop13:
  li a0, 690
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  bgt t11, loop13
  blt t1, else14
  stq f13, 48(sp)
  br join15
else14:
  stq f13, 56(sp)
join15:
  ldq f13, 24(sp)
  li f13, 606
  stq f13, 56(sp)
  ldq t1, 64(sp)
  subq f13, a0, a0
  ldq a0, 16(sp)
  ldq a0, 16(sp)
  li f13, 585
  ldq a0, 64(sp)
  and a0, t1, f13
  li a0, 438
  or f13, a0, f13
  mov a0, f13
  stq a0, 8(sp)
  xor t1, a0, f13
  stq f13, 24(sp)
  addq a0, t1, t1
  stq t1, 8(sp)
  ldq a0, 64(sp)
  ldq a0, 48(sp)
  stq a0, 16(sp)
  cmpeq a0, 59, t1
  mov a0, t1
  ldq a0, 48(sp)
  li a0, 406
  li t1, 776
  ldq a0, 56(sp)
  ldq f13, 32(sp)
  ldq f13, 32(sp)
  stq a0, 24(sp)
  mov t1, a0
  li t1, 272
  mov t1, t1
  li a0, 557
  mov a0, t1
  li f13, 977
  ldq f13, 16(sp)
r15$epi0:
  ldq ra, 0(sp)
  lda sp, 120(sp)
  ret
r15$epi1:
  ldq ra, 0(sp)
  lda sp, 120(sp)
  ret
.end

.routine r16
.entry r16$entry
r16$entry:
  lda sp, -136(sp)
  stq ra, 0(sp)
  stq zero, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  mov f10, a1
  li t11, 5
  stq t11, 72(sp)
loop0:
  mov v0, v0
  ldq t11, 72(sp)
  subq t11, 1, t11
  stq t11, 72(sp)
  bgt t11, loop0
  beq v0, else1
  xor v0, f10, v0
  br join2
else1:
  stq a1, 32(sp)
join2:
  and a1, v0, a1
  li t11, 12
  stq t11, 88(sp)
sw3:
  ldq t11, 88(sp)
  subq t11, 1, t11
  stq t11, 88(sp)
  ble t11, swend4
  switch t11, [arm5, arm6, arm7, arm8, arm9, arm10, arm11, arm12, arm13, arm14]
arm5:
  mov t6, a1
  br sw3
arm6:
  and a1, t6, t6
  br sw3
arm7:
  li v0, 947
  br sw3
arm8:
  ldq a1, 24(sp)
  br sw3
arm9:
  li t6, 438
  br sw3
arm10:
  stq f10, 24(sp)
  br sw3
arm11:
  ldq f10, 40(sp)
  br sw3
arm12:
  stq t6, 24(sp)
  br sw3
arm13:
  stq v0, 8(sp)
  br sw3
arm14:
  addq a1, 37, a1
  br sw3
swend4:
  bge v0, else15
  li v0, 587
  br join16
else15:
  stq v0, 56(sp)
join16:
  beq f10, else17
  stq v0, 32(sp)
  br join18
else17:
  ldq f10, 56(sp)
join18:
  bge v0, else19
  subq f10, 6, a1
  br join20
else19:
  addq t6, 13, a1
join20:
  li t11, 2
  stq t11, 104(sp)
loop21:
  cmpeq v0, 1, t6
  ldq t11, 104(sp)
  subq t11, 1, t11
  stq t11, 104(sp)
  bgt t11, loop21
  li f10, 468
  blt t6, else22
  cmplt a1, a1, t6
  br join23
else22:
  subq a1, 23, v0
join23:
  bne f10, else24
  ldq f10, 56(sp)
  br join25
else24:
  mov a1, v0
join25:
  beq t6, else26
  addq t6, t6, t6
  br join27
else26:
  stq a1, 40(sp)
join27:
  ldq v0, 8(sp)
  and t6, t6, t6
  mov v0, v0
  mov f10, v0
  addq f10, f10, v0
  subq v0, 3, a1
  subq a1, v0, a1
  mov f10, f10
  ldq t6, 40(sp)
  stq v0, 16(sp)
  li t6, 411
  ldq t6, 40(sp)
  mov a1, f10
  mov a1, v0
  li t6, 480
  subq t6, t6, t6
  ldq f10, 8(sp)
  addq a1, 4, v0
  li t6, 622
  mov f10, v0
  stq f10, 40(sp)
  stq a1, 32(sp)
  or v0, v0, t6
  addq a1, t6, a1
  xor v0, f10, a1
  stq v0, 16(sp)
  or a1, a1, v0
  li a1, 977
  mov t6, f10
r16$epi0:
  ldq ra, 0(sp)
  lda sp, 136(sp)
  ret
.end

.routine r17 .exported
.entry r17$entry
r17$entry:
  lda sp, -144(sp)
  stq s3, 0(sp)
  stq ra, 8(sp)
  stq zero, 16(sp)
  stq zero, 24(sp)
  stq zero, 32(sp)
  stq zero, 40(sp)
  stq zero, 48(sp)
  stq zero, 56(sp)
  stq zero, 64(sp)
  stq zero, 72(sp)
  stq v0, 64(sp)
  ldq f10, 32(sp)
  subq v0, 19, f10
  li v0, 379
  bne f10, else0
  ldq f10, 16(sp)
  br join1
else0:
  xor v0, v0, v0
join1:
  blt f10, else2
  li t4, 350
  mov f10, v0
  br join3
else2:
  subq v0, 50, v0
  ldq t4, 64(sp)
  stq t4, 32(sp)
  sll t4, 6, t4
join3:
  bne v0, else4
  ldq f10, 24(sp)
  sll f10, 39, v0
  br join5
else4:
  stq t4, 32(sp)
  ldq v0, 16(sp)
  stq t4, 72(sp)
  mov t4, t4
join5:
  bge f10, else6
  cmplt v0, t4, t4
  br join7
else6:
  li f10, 795
  stq t4, 56(sp)
  ldq f10, 48(sp)
join7:
  li t11, 3
  stq t11, 80(sp)
loop8:
  xor t4, f10, t4
  ldq t11, 80(sp)
  subq t11, 1, t11
  stq t11, 80(sp)
  bgt t11, loop8
  li t11, 12
  stq t11, 96(sp)
sw9:
  ldq t11, 96(sp)
  subq t11, 1, t11
  stq t11, 96(sp)
  ble t11, swend10
  switch t11, [arm11, arm12, arm13, arm14, arm15, arm16, arm17, arm18, arm19, arm20]
arm11:
  and t4, v0, t4
  br sw9
arm12:
  cmpeq t4, 3, t4
  br sw9
arm13:
  li t4, 829
  mov v0, f10
  br sw9
arm14:
  xor f10, v0, v0
  ldq v0, 16(sp)
  and t4, f10, t4
  br sw9
arm15:
  stq f10, 72(sp)
  li f10, 598
  or f10, f10, f10
  br sw9
arm16:
  addq v0, 56, t4
  br sw9
arm17:
  ldq t4, 32(sp)
  li t4, 347
  li t4, 512
  br sw9
arm18:
  or v0, f10, f10
  xor t4, f10, v0
  br sw9
arm19:
  li t4, 633
  and t4, v0, f10
  li v0, 265
  br sw9
arm20:
  stq t4, 48(sp)
  mov t4, f10
  br sw9
swend10:
  li t11, 3
  stq t11, 112(sp)
loop21:
  mov f10, v0
  ldq t11, 112(sp)
  subq t11, 1, t11
  stq t11, 112(sp)
  bgt t11, loop21
  blt f10, else22
  addq t4, v0, v0
  br join23
else22:
  stq t4, 72(sp)
join23:
  bne v0, else24
  ldq t4, 48(sp)
  br join25
else24:
  mov f10, f10
join25:
  beq t4, else26
  mov v0, f10
  subq t4, 5, v0
  ldq t4, 32(sp)
  or v0, v0, v0
  br join27
else26:
  stq v0, 40(sp)
  cmplt f10, v0, v0
  cmpeq v0, 39, v0
join27:
  ldq f10, 24(sp)
  ldq v0, 16(sp)
  addq f10, 38, v0
  ldq v0, 40(sp)
  and f10, f10, f10
  stq v0, 48(sp)
  stq t4, 32(sp)
  subq v0, 11, t4
  addq v0, 41, t4
  sll f10, 58, t4
  ldq t4, 48(sp)
  stq v0, 64(sp)
  ldq t4, 40(sp)
  sll t4, 23, f10
  mov v0, v0
  li v0, 131
  mov t4, v0
  or f10, t4, t4
  ldq v0, 32(sp)
  ldq f10, 56(sp)
  subq f10, 61, v0
  cmpeq f10, 34, f10
  or v0, f10, f10
  stq v0, 16(sp)
  subq t4, 53, f10
  subq t4, v0, v0
  ldq t4, 24(sp)
  addq t4, 25, f10
  mov v0, t4
  stq t4, 72(sp)
  mov v0, v0
  subq t4, f10, f10
  ldq v0, 56(sp)
  mov v0, f10
  mov f10, f10
  ldq t4, 72(sp)
  cmpeq v0, 1, t4
  stq v0, 32(sp)
  ldq v0, 24(sp)
  stq f10, 16(sp)
  addq t4, 44, f10
  mov f10, f10
  subq t4, v0, t4
  addq v0, 42, v0
  stq f10, 56(sp)
  ldq v0, 40(sp)
  mov t4, f10
  cmpeq t4, 63, v0
  mov v0, v0
  li t4, 881
  addq t4, 28, t4
  mov f10, v0
  stq f10, 16(sp)
  stq v0, 40(sp)
  li v0, 482
  or f10, t4, t4
  stq t4, 16(sp)
  cmpeq t4, 31, t4
  ldq v0, 40(sp)
  li f10, 998
  mov f10, f10
  stq v0, 16(sp)
  ldq t4, 24(sp)
  cmplt f10, v0, t4
  cmpeq f10, 13, t4
  stq v0, 48(sp)
  ldq v0, 64(sp)
  li t4, 93
  ldq v0, 64(sp)
  ldq f10, 72(sp)
  xor v0, f10, f10
  cmpeq f10, 13, f10
  ldq t4, 16(sp)
  mov t4, t4
  sll f10, 11, t4
  cmplt t4, f10, f10
  ldq t4, 72(sp)
  ldq f10, 56(sp)
  mov f10, t4
  cmpeq f10, 52, t4
  li f10, 810
  ldq f10, 56(sp)
  mov v0, t4
  and v0, t4, v0
  xor t4, v0, f10
  or v0, v0, f10
  and f10, t4, f10
  li t4, 531
  ldq v0, 16(sp)
  or f10, v0, v0
  li f10, 384
  stq v0, 56(sp)
  subq f10, 38, v0
  ldq v0, 64(sp)
  mov v0, v0
  mov v0, f10
  subq f10, 60, t4
  li f10, 576
  sll t4, 22, t4
  addq f10, 28, f10
  ldq t4, 56(sp)
  cmpeq f10, 11, v0
  cmpeq v0, 7, t4
r17$epi0:
  ldq s3, 0(sp)
  ldq ra, 8(sp)
  lda sp, 144(sp)
  ret
.end

.routine stub0 .exported
.entry stub0$entry
stub0$entry:
  addq a0, a1, v0
  xor a2, 3, t0
  li f0, 1
  ret
.end

