/**
 * @file
 * Translation validation: the hazard verifier proves a reorganized
 * unit is a *well-formed pipeline program*; it cannot prove it still
 * computes what the legal input computed. The translation validator
 * closes that gap by symbolic execution — the legal unit under
 * sequential semantics, the reorganized unit under pipeline semantics
 * (load delays, packed pieces, delay slots) — and proves both sides
 * leave identical architectural state for *all* register values.
 *
 * This example reorganizes a hazardful legal unit and proves the
 * output equivalent, then tampers with one immediate in the output.
 * The tampered unit still passes the hazard verifier (it is a
 * perfectly scheduled wrong program) but the validator reports a
 * TV001 register divergence, printing the two symbolic expressions
 * that disagree.
 */
#include <cstdio>

#include "asm/assembler.h"
#include "reorg/reorganizer.h"
#include "verify/tv.h"
#include "verify/verify.h"

int
main()
{
    // Legal (sequential-semantics) code, full of load-use and
    // store/load dependences the reorganizer must schedule around.
    const char *legal =
        "        li #500, r13\n"
        "        movi #41, r1\n"
        "        st r1, 0(r13)\n"
        "        ld 0(r13), r2\n"
        "        add r2, #1, r3\n"
        "        st r3, 1(r13)\n"
        "        ld 1(r13), r4\n"
        "        add r4, r2, r5\n"
        "        st r5, 2(r13)\n"
        "        halt\n";

    auto unit = mips::assembler::parse(legal);
    if (!unit.ok()) {
        std::fprintf(stderr, "parse error: %s\n",
                     unit.error().str().c_str());
        return 1;
    }

    mips::reorg::ReorgResult reorganized =
        mips::reorg::reorganize(unit.value());

    // Prove, not test: sequential(input) == pipeline(output) for all
    // initial register and memory states.
    mips::verify::VerifyReport proof = mips::verify::validateTranslation(
        unit.value(), reorganized.unit, reorganized.hints,
        reorganized.live_in);
    std::printf("reorganized unit: %zu error(s), %zu unproven — %s\n",
                proof.errors, proof.notes,
                proof.clean() && proof.notes == 0 ? "EQUIVALENT, proven"
                                                  : "NOT proven");
    bool proved = proof.clean() && proof.notes == 0;

    // Now miscompile it by hand: 41 becomes 40. No hazard is
    // introduced — only the hazard-invisible kind of bug.
    mips::assembler::Unit tampered = reorganized.unit;
    for (auto &item : tampered.items) {
        if (!item.is_data && item.inst.alu() &&
            item.inst.alu()->op == mips::isa::AluOp::MOVI8) {
            item.inst.alu()->imm8 ^= 1;
            break;
        }
    }

    mips::verify::VerifyReport hazards =
        mips::verify::verifyReorganization(unit.value(), tampered);
    std::printf("tampered unit, hazard verifier: %zu error(s) "
                "(well-formed pipeline code — but wrong)\n",
                hazards.errors);

    mips::verify::VerifyReport caught = mips::verify::validateTranslation(
        unit.value(), tampered, reorganized.hints, reorganized.live_in);
    std::printf("tampered unit, translation validator:\n%s",
                mips::verify::reportText(caught, tampered, "tampered.s")
                    .c_str());

    bool ok = proved && hazards.clean() &&
              caught.countOf(mips::verify::Code::TV001) >= 1;
    std::printf("%s\n",
                ok ? "OK: equivalence proven, miscompile caught"
                   : "MISMATCH");
    return ok ? 0 : 1;
}
