; VF005: label 'b' is defined twice, so the unit parses but does not
; link. Verification reports the second definition (references resolve
; to the first); --range-oracle, which must run the linked unit, fails
; with the link error instead.
a:      add r0, #1, r1
        bra b
        nop
b:      halt
b:      halt
