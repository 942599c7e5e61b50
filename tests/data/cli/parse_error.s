; Not assembly: the unit fails to parse, so no mode gets past reading it.
        movi #1, r1
        frobnicate r1, r2
        halt
