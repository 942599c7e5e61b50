; VF002: the branch names a label the unit never defines, so the unit
; parses but does not link. Verification reports the undefined label;
; --range-oracle, which must run the linked unit, fails with the link
; error instead.
        bra nowhere
        nop
        halt
