; Row broadcast from the destination matrix itself.  A full-VL mop
; writes its rows in order, so the broadcast row is read afresh for
; every row: rows after the broadcast row see its updated value.
; (mvsad.b m1, m1, m1[5]:bcast is the shape the fuzzer found; row 5
; becomes sad(row5, row5) = 0, so rows 6 and 7 sum their own bytes.)
.ext vmmx128
.data 0:   01 02 03 04 05 06 07 08  09 0a 0b 0c 0d 0e 0f 10
.data 16:  f0 e1 d2 c3 b4 a5 96 87  78 69 5a 4b 3c 2d 1e 0f
.reg r1 = 0
setvl #8
mld.16 m1, (r1) vs=#2      ; eight overlapping windows of the data
mmov m2, m1
mvsad.b m1, m1, m1[5]:bcast
mvadd.b m2, m2, m2[3]:bcast  ; rows 4..7 add the doubled row 3
halt
