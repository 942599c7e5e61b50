; VF004: the jump table's only entry resolves to a data word, not to
; code. Hazard verification reports it once; the range analysis, whose
; findings fold into the same report, must not report it again.
        la tab, r2
        nop
        movi #0, r3
        jtab (r2+r3), tab
        nop
        nop
tab:    .word d
d:      .word 5
