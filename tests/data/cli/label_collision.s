; The input already defines L$dup0, the first name the reorganizer's
; branch-delay scheme 2 would give the label it puts past the word it
; duplicates into the slot of `bra tgt`. The new label must take a
; name the unit does not use, so the reorganized unit still links and
; `bra tgt` still reaches tgt.
start:  bra tgt
L$dup0: add r0, #2, r2
        halt
tgt:    add r0, #3, r3
        add r3, #4, r4
        halt
