/**
 * @file
 * Translation-validator tests.
 *
 *  - ExprArena normalization: the algebraic and store-log rules the
 *    equivalence proofs rest on.
 *  - Validator behavior: clean proofs on correct reorganizations
 *    (including scheme-2 duplication and scheme-3 hoisting), errors on
 *    hand-mutated output, TV090 notes (never a silent pass) when a
 *    region cannot be proven.
 *  - The mutation suite: every deliberate reorganizer bug behind
 *    ReorgOptions::bugs must change the output *and* be caught with a
 *    TV0xx ERROR — no false negatives.
 *  - Gen/kill conformance: the declared register read/write sets and
 *    the symbolic ALU transfer functions are cross-checked against the
 *    functional simulator for every opcode and operand shape, so the
 *    dependence DAG, the hazard checks, and the validator all share
 *    one verified definition.
 *  - The AliasOptions matrix: every corpus program, under every alias
 *    configuration, must be hazard-clean, TV-proven, and
 *    differentially correct.
 */
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asm/assembler.h"
#include "isa/encoding.h"
#include "isa/instruction.h"
#include "isa/symbolic.h"
#include "plc/driver.h"
#include "reorg/reorganizer.h"
#include "sim/machine.h"
#include "verify/symexec.h"
#include "verify/tv.h"
#include "verify/verify.h"
#include "workload/corpus.h"

namespace mips::verify {
namespace {

using assembler::Unit;
using reorg::reorganize;
using reorg::ReorgOptions;
using reorg::ReorgResult;

/** The names of the labels `item` defines, in order. */
std::vector<std::string_view>
labelNames(const Unit &unit, const assembler::Item &item)
{
    std::vector<std::string_view> names;
    for (assembler::LabelId id : unit.labels.chain(item.label))
        names.push_back(unit.labels.name(id));
    return names;
}

/** Items lack operator==; compare the fields a reorganizer bug can
 *  affect (instruction, target, data). */
bool
sameItems(const Unit &a, const Unit &b)
{
    if (a.items.size() != b.items.size())
        return false;
    for (size_t i = 0; i < a.items.size(); ++i) {
        const assembler::Item &x = a.items[i];
        const assembler::Item &y = b.items[i];
        if (x.is_data != y.is_data ||
            assembler::targetName(a, x) != assembler::targetName(b, y) ||
            labelNames(a, x) != labelNames(b, y))
            return false;
        if (x.is_data ? x.data_value != y.data_value : !(x.inst == y.inst))
            return false;
    }
    return true;
}

Unit
parseUnit(std::string_view src)
{
    auto unit = assembler::parse(src);
    EXPECT_TRUE(unit.ok()) << (unit.ok() ? "" : unit.error().str());
    return unit.take();
}

/** True if the report carries at least one TV0xx ERROR. */
bool
hasTvError(const VerifyReport &report)
{
    for (const Diagnostic &d : report.diagnostics) {
        if (d.severity != Severity::ERROR)
            continue;
        switch (d.code) {
          case Code::TV001: case Code::TV002: case Code::TV003:
          case Code::TV004: case Code::TV005: case Code::TV006:
            return true;
          default:
            break;
        }
    }
    return false;
}

std::string
dump(const VerifyReport &report, const Unit &unit)
{
    return reportText(report, unit, "test");
}

VerifyReport
validate(const Unit &legal, const ReorgResult &r,
         const ReorgOptions &opts = ReorgOptions{})
{
    TvOptions tvopts;
    tvopts.alias = opts.alias;
    return validateTranslation(legal, r.unit, r.hints, r.live_in, tvopts);
}

// --------------------------------------------- arena normalization

TEST(ExprArena, AluIdentitiesNormalize)
{
    ExprArena a;
    ExprRef x = a.input(1);
    EXPECT_EQ(a.add(x, a.konst(0)), x);
    EXPECT_EQ(a.add(x, a.konst(3)), a.add(a.konst(3), x));
    // Constant reassociation: (x+2)+3 == x+5.
    EXPECT_EQ(a.add(a.add(x, a.konst(2)), a.konst(3)),
              a.add(x, a.konst(5)));
    EXPECT_EQ(a.sub(x, x), a.konst(0));
    EXPECT_EQ(a.xor_(x, x), a.konst(0));
    EXPECT_EQ(a.add(a.konst(7), a.konst(8)), a.konst(15));
    EXPECT_EQ(a.cmp(isa::Cond::EQ, x, x), a.konst(1));
    EXPECT_EQ(a.cmp(isa::Cond::NEVER, x, x), a.konst(0));
}

TEST(ExprArena, DisjointStoresNormalizeToOneChain)
{
    ExprArena a;
    ExprRef v1 = a.input(1), v2 = a.input(2);
    ExprRef p = a.konst(100), q = a.konst(200);
    ExprRef m1 = a.memStore(a.memStore(a.memInit(), p, v1), q, v2);
    ExprRef m2 = a.memStore(a.memStore(a.memInit(), q, v2), p, v1);
    EXPECT_EQ(m1, m2) << "provably disjoint stores must commute";

    // Same-base symbolic addresses with distinct displacements too.
    ExprRef base = a.input(3);
    ExprRef b0 = a.add(base, a.konst(0)), b1 = a.add(base, a.konst(1));
    ExprRef m3 = a.memStore(a.memStore(a.memInit(), b0, v1), b1, v2);
    ExprRef m4 = a.memStore(a.memStore(a.memInit(), b1, v2), b0, v1);
    EXPECT_EQ(m3, m4);
}

TEST(ExprArena, VolatileStoresKeepProgramOrder)
{
    ExprArena a; // default volatile window at 0x000ff000
    ExprRef v = a.input(1);
    ExprRef p = a.konst(0x000ff000), q = a.konst(0x000ff001);
    ExprRef m1 = a.memStore(a.memStore(a.memInit(), p, v), q, v);
    ExprRef m2 = a.memStore(a.memStore(a.memInit(), q, v), p, v);
    EXPECT_NE(m1, m2) << "MMIO stores must not commute";
}

TEST(ExprArena, LoadForwardsAndSkipsByAliasDiscipline)
{
    ExprArena a;
    ExprRef v1 = a.input(1), v2 = a.input(2);
    ExprRef m = a.memStore(a.memInit(), a.konst(100), v1);
    // Exact address: forward the stored value.
    EXPECT_EQ(a.memLoad(m, a.konst(100)), v1);
    // Provably disjoint store in between: skip it.
    ExprRef m2 = a.memStore(m, a.konst(101), v2);
    EXPECT_EQ(a.memLoad(m2, a.konst(100)), v1);
    // Possibly-aliasing symbolic store: stay opaque, do not forward.
    ExprRef m3 = a.memStore(m, a.input(3), v2);
    EXPECT_NE(a.memLoad(m3, a.konst(100)), v1);
}

/** A fixed construction over a few hundred distinct nodes: label
 *  addresses in `labels` order, shifted and xor-ed chains and a store
 *  log. Returns every ref it made with its rendering. */
std::vector<std::pair<ExprRef, std::string>>
buildTerms(ExprArena &a, const std::vector<assembler::LabelId> &labels,
           int rounds)
{
    std::vector<std::pair<ExprRef, std::string>> out;
    SymState s = entryState(a);
    ExprRef x = s.regs[1];
    ExprRef mem = s.mem;
    for (int i = 0; i < rounds; ++i) {
        ExprRef label = a.labelAddr(labels[i % labels.size()]);
        x = a.xor_(a.shl(x, a.konst(1 + i % 30)), label);
        mem = a.memStore(mem, a.add(s.regs[13], a.konst(i)), x);
        out.emplace_back(x, a.str(x));
        out.emplace_back(mem, a.str(mem, 2));
    }
    return out;
}

TEST(ExprArena, ResetBehavesLikeAFreshArena)
{
    // Twelve labels; the table outlives both arenas.
    assembler::LabelTable names;
    std::vector<assembler::LabelId> forward;
    for (int i = 0; i < 12; ++i)
        forward.push_back(names.add("L_" + std::to_string(i)));
    std::vector<assembler::LabelId> backward(forward.rbegin(),
                                             forward.rend());
    const size_t budget = 2000;

    ExprArena fresh(reorg::AliasOptions{}, budget);
    fresh.setLabels(&names);
    auto want = buildTerms(fresh, backward, 150);
    ASSERT_GT(fresh.size(), 256u) << "the index table must have grown";
    ASSERT_FALSE(fresh.overflowed());

    // Dirty an arena with the labels in another order, then exhaust
    // its budget.
    ExprArena reused(reorg::AliasOptions{}, budget);
    reused.setLabels(&names);
    buildTerms(reused, forward, 40);
    buildTerms(reused, forward, 1000);
    ASSERT_TRUE(reused.overflowed());

    for (int pass = 0; pass < 2; ++pass) {
        SCOPED_TRACE(pass);
        reused.reset();
        EXPECT_FALSE(reused.overflowed());
        ASSERT_EQ(reused.size(), 1u);
        EXPECT_EQ(reused.node(0).op, ExprOp::CONST);
        EXPECT_EQ(reused.node(0).value, 0u);
        // Same refs (so the same canonical operand order) and the
        // same renderings.
        EXPECT_EQ(buildTerms(reused, backward, 150), want);
        EXPECT_EQ(reused.size(), fresh.size());
        EXPECT_FALSE(reused.overflowed());
        // A label node holds the unit's id and renders its name.
        ExprRef l11 = reused.labelAddr(backward[0]);
        EXPECT_EQ(reused.node(l11).value, 11u);
        EXPECT_EQ(reused.str(l11), "&L_11");
    }
}

// ------------------------------------------------ validator behavior

const char *kHazardful =
    "li #500, r13\n"
    "movi #41, r1\n"
    "st r1, 0(r13)\n"
    "ld 0(r13), r2\n"
    "add r2, #1, r3\n"
    "st r3, 1(r13)\n"
    "ld 1(r13), r4\n"
    "add r4, r2, r5\n"
    "st r5, 2(r13)\n"
    "halt\n";

TEST(TvValidator, ProvesHazardfulProgramUnderEveryStageToggle)
{
    Unit u = parseUnit(kHazardful);
    for (bool reorder : {false, true})
        for (bool pack : {false, true})
            for (bool fill : {false, true}) {
                ReorgOptions opts;
                opts.reorder = reorder;
                opts.pack = pack;
                opts.fill_delay = fill;
                ReorgResult r = reorganize(u, opts);
                VerifyReport tv = validate(u, r, opts);
                EXPECT_TRUE(tv.clean() && tv.notes == 0)
                    << dump(tv, r.unit);
            }
}

TEST(TvValidator, ProvesScheme2DuplicationViaHints)
{
    Unit u = parseUnit(
        "li #500, r13\n"
        "movi #1, r1\n"
        "go: bra tgt\n"
        "movi #9, r2\n"
        "tgt: add r1, #1, r1\n"
        "st r1, 0(r13)\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    ASSERT_GE(r.stats.slots_filled_dup, 1u)
        << "expected a scheme-2 duplication to exercise the hint path";
    ASSERT_FALSE(r.hints.empty());
    VerifyReport tv = validate(u, r);
    EXPECT_TRUE(tv.clean() && tv.notes == 0) << dump(tv, r.unit);
}

TEST(TvValidator, ProvesScheme3HoistViaTakenPathLiveness)
{
    Unit u = parseUnit(
        "li #500, r13\n"
        "movi #1, r1\n"
        "b0: beq r1, #1, yes\n"
        "movi #7, r3\n"
        "st r3, 0(r13)\n"
        "halt\n"
        "yes: movi #5, r3\n"
        "st r3, 1(r13)\n"
        "halt\n");
    ReorgResult r = reorganize(u);
    VerifyReport tv = validate(u, r);
    EXPECT_TRUE(tv.clean() && tv.notes == 0) << dump(tv, r.unit);
}

// Hand mutations of a correct reorganization; each returns false
// when the unit has nothing to mutate.

/** Flip the low bit of the first `movi` immediate (41 -> 40). */
bool
mutateImmediate(Unit *unit)
{
    for (auto &item : unit->items) {
        if (!item.is_data && item.inst.alu() &&
            item.inst.alu()->op == isa::AluOp::MOVI8) {
            item.inst.alu()->imm8 ^= 1;
            return true;
        }
    }
    return false;
}

/** Flip the low bit of every `movi` immediate, fenced ones too. */
bool
mutateEveryImmediate(Unit *unit)
{
    bool any = false;
    for (auto &item : unit->items) {
        if (!item.is_data && item.inst.alu() &&
            item.inst.alu()->op == isa::AluOp::MOVI8) {
            item.inst.alu()->imm8 ^= 1;
            any = true;
        }
    }
    return any;
}

/** Replace the first store with a no-op. */
bool
dropStore(Unit *unit)
{
    for (auto &item : unit->items) {
        if (!item.is_data && item.inst.isStore()) {
            item.inst = isa::Instruction::makeNop();
            return true;
        }
    }
    return false;
}

/** Swap the targets of the first two relocated .word entries. */
bool
swapTableEntries(Unit *unit)
{
    std::vector<size_t> entries;
    for (size_t i = 0; i < unit->items.size(); ++i)
        if (unit->items[i].is_data &&
            unit->items[i].target != assembler::kNoLabel)
            entries.push_back(i);
    if (entries.size() < 2)
        return false;
    std::swap(unit->items[entries[0]].target,
              unit->items[entries[1]].target);
    return true;
}

/** Erase the last relocated .word entry. */
bool
dropTableEntry(Unit *unit)
{
    for (size_t i = unit->items.size(); i-- > 0;) {
        if (unit->items[i].is_data &&
            unit->items[i].target != assembler::kNoLabel) {
            unit->items.erase(unit->items.begin() +
                              static_cast<ptrdiff_t>(i));
            assembler::locateLabels(unit);
            return true;
        }
    }
    return false;
}

/** Change the first table dispatch's index register to r4. */
bool
retargetTableFetch(Unit *unit)
{
    for (auto &item : unit->items) {
        if (!item.is_data && item.inst.jump() &&
            isa::jumpIsTable(item.inst.jump()->kind)) {
            item.inst.jump()->index = static_cast<isa::Reg>(4);
            return true;
        }
    }
    return false;
}

TEST(TvValidator, CatchesHandMutatedImmediate)
{
    Unit u = parseUnit(kHazardful);
    ReorgResult r = reorganize(u);
    ASSERT_TRUE(mutateImmediate(&r.unit));
    VerifyReport tv = validate(u, r);
    EXPECT_TRUE(hasTvError(tv)) << dump(tv, r.unit);
}

TEST(TvValidator, CatchesHandDroppedStore)
{
    Unit u = parseUnit(kHazardful);
    ReorgResult r = reorganize(u);
    ASSERT_TRUE(dropStore(&r.unit));
    VerifyReport tv = validate(u, r);
    EXPECT_TRUE(hasTvError(tv)) << dump(tv, r.unit);
    EXPECT_GE(tv.countOf(Code::TV002), 1u) << dump(tv, r.unit);
}

/** A two-way table dispatch: sequential semantics select entry 1. */
const char *const kTableDispatch =
    "li #500, r13\n"
    "movi #1, r3\n"
    "la tab, r2\n"
    "jtab (r2+r3), tab\n"
    "tab: .word t0\n"
    ".word t1\n"
    "t0: movi #1, r1\n"
    "st r1, 0(r13)\n"
    "halt\n"
    "t1: movi #2, r1\n"
    "st r1, 0(r13)\n"
    "halt\n";

TEST(TvValidator, ProvesTableDispatchLowering)
{
    Unit u = parseUnit(kTableDispatch);
    ReorgResult r = reorganize(u);
    VerifyReport tv = validate(u, r);
    EXPECT_TRUE(tv.clean() && tv.notes == 0) << dump(tv, r.unit);
}

TEST(TvValidator, CatchesSwappedTableEntries)
{
    // Swap the two .word entries: the fetch terms still agree, so
    // only the entry-sequence comparison (TV008) can catch that an
    // in-bounds index now lands on the wrong arm.
    Unit u = parseUnit(kTableDispatch);
    ReorgResult r = reorganize(u);
    ASSERT_TRUE(swapTableEntries(&r.unit));
    VerifyReport tv = validate(u, r);
    EXPECT_GE(tv.countOf(Code::TV008), 1u) << dump(tv, r.unit);
}

TEST(TvValidator, CatchesDroppedTableEntry)
{
    Unit u = parseUnit(kTableDispatch);
    ReorgResult r = reorganize(u);
    ASSERT_TRUE(dropTableEntry(&r.unit));
    VerifyReport tv = validate(u, r);
    EXPECT_GE(tv.countOf(Code::TV008), 1u) << dump(tv, r.unit);
}

TEST(TvValidator, CatchesRetargetedTableFetch)
{
    // Change the dispatch's index register: the fetched-entry term
    // diverges (TV007) even though the table itself is intact.
    Unit u = parseUnit(kTableDispatch);
    ReorgResult r = reorganize(u);
    ASSERT_TRUE(retargetTableFetch(&r.unit));
    VerifyReport tv = validate(u, r);
    EXPECT_GE(tv.countOf(Code::TV007), 1u) << dump(tv, r.unit);
}

TEST(TvValidator, UnprovenRegionIsANoteNeverASilentPass)
{
    Unit u = parseUnit(kHazardful);
    ReorgResult r = reorganize(u);
    TvOptions tvopts;
    tvopts.limits.max_steps = 2; // far too small for the region
    VerifyReport tv =
        validateTranslation(u, r.unit, r.hints, r.live_in, tvopts);
    EXPECT_GE(tv.countOf(Code::TV090), 1u)
        << "an undecidable region must surface as TV090:\n"
        << dump(tv, r.unit);
}

// ------------------------------------------------- mutation suite

struct BugCase
{
    const char *name;
    bool reorg::ReorgBugs::*flag;
    const char *src;
    bool fill_delay = true;
};

const BugCase kBugCases[] = {
    {"pack_dependent", &reorg::ReorgBugs::pack_dependent,
     "li #500, r13\n"
     "movi #3, r2\n"
     "add r2, #1, r2\n"
     "st r2, 0(r13)\n"
     "halt\n"},
    {"hoist_blind", &reorg::ReorgBugs::hoist_blind,
     "li #500, r13\n"
     "movi #1, r1\n"
     "b0: beq r1, #1, yes\n"
     "movi #7, r3\n"
     "st r3, 0(r13)\n"
     "halt\n"
     "yes: st r3, 1(r13)\n"
     "halt\n"},
    {"alias_blind", &reorg::ReorgBugs::alias_blind,
     "li #500, r13\n"
     "movi #7, r1\n"
     "st r1, 0(r13)\n"
     "ld 0(r13), r2\n"
     "add r2, #1, r3\n"
     "st r3, 1(r13)\n"
     "halt\n"},
    {"slot_overwritten_def", &reorg::ReorgBugs::slot_overwritten_def,
     "li #500, r13\n"
     "go: movi #1, r1\n"
     "movi #2, r1\n"
     "bra out\n"
     "movi #9, r2\n"
     "out: st r1, 0(r13)\n"
     "halt\n"},
    {"drop_load_noop", &reorg::ReorgBugs::drop_load_noop,
     "li #500, r13\n"
     "ld 0(r13), r2\n"
     "add r2, #1, r3\n"
     "st r3, 1(r13)\n"
     "halt\n"},
    {"drop_branch_noop", &reorg::ReorgBugs::drop_branch_noop,
     "li #500, r13\n"
     "movi #5, r1\n"
     "bra out\n"
     "movi #9, r2\n"
     "out: st r1, 0(r13)\n"
     "halt\n",
     /*fill_delay=*/false},
    {"retarget_same_target", &reorg::ReorgBugs::retarget_same_target,
     "li #500, r13\n"
     "movi #1, r1\n"
     "go: bra tgt\n"
     "movi #9, r2\n"
     "tgt: add r1, #1, r1\n"
     "st r1, 0(r13)\n"
     "halt\n"},
    {"dup_skip_second", &reorg::ReorgBugs::dup_skip_second,
     "li #500, r13\n"
     "movi #1, r1\n"
     "go: bra tgt\n"
     "movi #9, r2\n"
     "tgt: add r1, #1, r1\n"
     "add r1, #2, r1\n"
     "st r1, 0(r13)\n"
     "halt\n"},
};

TEST(MutationSuite, EverySeededReorganizerBugIsCaught)
{
    for (const BugCase &c : kBugCases) {
        SCOPED_TRACE(c.name);
        Unit u = parseUnit(c.src);

        ReorgOptions good;
        good.fill_delay = c.fill_delay;
        ReorgResult clean = reorganize(u, good);
        VerifyReport tv_clean = validate(u, clean, good);
        ASSERT_TRUE(tv_clean.clean() && tv_clean.notes == 0)
            << c.name << ": bug-free reorganization must prove clean:\n"
            << dump(tv_clean, clean.unit);

        ReorgOptions bad = good;
        bad.bugs.*(c.flag) = true;
        ReorgResult buggy = reorganize(u, bad);
        ASSERT_FALSE(sameItems(buggy.unit, clean.unit))
            << c.name << ": the seeded bug did not change the output; "
                          "the trigger program misses its stage";
        VerifyReport tv = validate(u, buggy, bad);
        EXPECT_TRUE(hasTvError(tv))
            << c.name << ": seeded bug escaped the validator:\n"
            << dump(tv, buggy.unit);
    }
}

// ------------------------------------------- diagnostic text golden

/** The bug flags of ReorgBugs, by name, for the golden. */
const std::pair<const char *, bool reorg::ReorgBugs::*> kBugFlags[] = {
    {"pack_dependent", &reorg::ReorgBugs::pack_dependent},
    {"hoist_blind", &reorg::ReorgBugs::hoist_blind},
    {"alias_blind", &reorg::ReorgBugs::alias_blind},
    {"slot_overwritten_def", &reorg::ReorgBugs::slot_overwritten_def},
    {"drop_load_noop", &reorg::ReorgBugs::drop_load_noop},
    {"drop_branch_noop", &reorg::ReorgBugs::drop_branch_noop},
    {"retarget_same_target", &reorg::ReorgBugs::retarget_same_target},
    {"dup_skip_second", &reorg::ReorgBugs::dup_skip_second},
};

/** One golden section: a header line, then the TV report text. */
void
appendReport(std::string *out, const std::string &name, const Unit &legal,
             const ReorgResult &r, const ReorgOptions &opts,
             const TvOptions &tvopts)
{
    TvOptions with_alias = tvopts;
    with_alias.alias = opts.alias;
    VerifyReport tv = validateTranslation(legal, r.unit, r.hints,
                                          r.live_in, with_alias);
    *out += "== " + name + "\n";
    *out += reportText(tv, r.unit, name);
}

/** Every seeded bug over every program where it changes the output,
 *  then every hand mutation: the TV text that tests/golden pins. */
std::string
renderMutantReports()
{
    struct Program
    {
        std::string name;
        Unit legal;
        bool fill_delay = true;
    };
    std::vector<Program> programs;
    for (const BugCase &c : kBugCases)
        programs.push_back({c.name, parseUnit(c.src), c.fill_delay});
    for (const workload::CorpusProgram &p : workload::corpus()) {
        auto exe = plc::buildExecutable(p.source);
        EXPECT_TRUE(exe.ok()) << p.name;
        if (exe.ok())
            programs.push_back({p.name, exe.value().legal_unit, true});
    }

    std::string out;
    for (const auto &[bug, flag] : kBugFlags) {
        for (const Program &p : programs) {
            ReorgOptions good;
            good.fill_delay = p.fill_delay;
            ReorgOptions bad = good;
            bad.bugs.*flag = true;
            ReorgResult buggy = reorganize(p.legal, bad);
            if (sameItems(buggy.unit, reorganize(p.legal, good).unit))
                continue;
            appendReport(&out, std::string(bug) + "/" + p.name, p.legal,
                         buggy, bad, TvOptions{});
        }
    }

    struct HandMutant
    {
        const char *name;
        const char *src;
        bool (*mutate)(Unit *);
    };
    // Regions entered after a trap and after a fenced run.
    const char *const fence_trap =
        "li #500, r13\n"
        "movi #1, r1\n"
        "trap #3\n"
        "movi #41, r2\n"
        ".noreorder\n"
        "movi #5, r3\n"
        ".reorder\n"
        "movi #42, r4\n"
        "st r2, 0(r13)\n"
        "st r4, 1(r13)\n"
        "halt\n";
    const HandMutant hand[] = {
        {"mutated_immediate", kHazardful, mutateImmediate},
        {"every_immediate", fence_trap, mutateEveryImmediate},
        {"dropped_store", kHazardful, dropStore},
        {"swapped_table_entries", kTableDispatch, swapTableEntries},
        {"dropped_table_entry", kTableDispatch, dropTableEntry},
        {"retargeted_table_fetch", kTableDispatch, retargetTableFetch},
    };
    for (const HandMutant &m : hand) {
        Unit u = parseUnit(m.src);
        ReorgResult r = reorganize(u);
        EXPECT_TRUE(m.mutate(&r.unit)) << m.name;
        appendReport(&out, m.name, u, r, ReorgOptions{}, TvOptions{});
    }
    Unit u = parseUnit(kHazardful);
    TvOptions tiny;
    tiny.limits.max_steps = 2;
    appendReport(&out, "step_budget", u, reorganize(u), ReorgOptions{},
                 tiny);
    return out;
}

/**
 * TV's diagnostic text, byte for byte: region names, exit kinds and
 * rendered terms (whose operand order follows node numbering) over
 * every seeded reorganizer bug and hand mutation. On a mismatch the
 * rendered text is written to tv_mutants.actual.txt in the test's
 * working directory; after an intended change to the text, review its
 * diff against the golden and copy it over.
 */
TEST(TvGolden, MutantReportsMatchGolden)
{
    const std::string path = MIPS82_GOLDEN_DIR "/tv_mutants.txt";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    std::string actual = renderMutantReports();
    if (actual == golden.str())
        return;

    std::ofstream("tv_mutants.actual.txt", std::ios::binary) << actual;
    std::istringstream want(golden.str()), got(actual);
    std::string w, g;
    int line = 1;
    for (;; ++line) {
        bool more_w = static_cast<bool>(std::getline(want, w));
        bool more_g = static_cast<bool>(std::getline(got, g));
        if (!more_w)
            w = "<end>";
        if (!more_g)
            g = "<end>";
        if (w != g || !more_w)
            break;
    }
    ADD_FAILURE() << path << " differs from tv_mutants.actual.txt from "
                  << "line " << line << "\n  golden: " << w
                  << "\n  actual: " << g;
}

// -------------------------------------- gen/kill + ALU conformance

TEST(Conformance, SymbolicAluMatchesConcreteForEveryOpcode)
{
    const uint32_t vals[] = {0u, 1u, 2u, 3u, 5u, 15u, 31u, 32u,
                             0x7fu, 0x80u, 0xffu, 0x100u,
                             0x7fffffffu, 0x80000000u,
                             0xfffffffeu, 0xffffffffu};
    const uint32_t aux_vals[] = {0u, 1u, 3u, 0x80000000u, 0xffffffffu};
    isa::ConcreteBuilder cb;
    for (int op = 0; op < isa::kNumAluOps; ++op) {
        isa::AluPiece piece;
        piece.op = static_cast<isa::AluOp>(op);
        piece.imm8 = 0xa5;
        int nconds = piece.op == isa::AluOp::SET ? isa::kNumConds : 1;
        for (int c = 0; c < nconds; ++c) {
            piece.cond = static_cast<isa::Cond>(c);
            for (uint32_t rs : vals)
                for (uint32_t src2 : vals)
                    for (uint32_t rd_old : aux_vals)
                        for (uint32_t lo : aux_vals) {
                            isa::AluInputs in{rs, src2, rd_old, lo};
                            isa::AluOutputs ref = isa::evalAlu(piece, in);
                            auto sym = isa::evalAluSymbolic(
                                piece, cb, rs, src2, rd_old, lo);
                            ASSERT_EQ(sym.writes_rd, ref.writes_rd);
                            ASSERT_EQ(sym.writes_lo, ref.writes_lo);
                            if (ref.writes_rd) {
                                ASSERT_EQ(sym.rd, ref.rd)
                                    << "op " << op << " cond " << c
                                    << " rs " << rs << " src2 " << src2
                                    << " rd_old " << rd_old << " lo "
                                    << lo;
                            }
                            if (ref.writes_lo) {
                                ASSERT_EQ(sym.lo, ref.lo)
                                    << "op " << op << " rs " << rs
                                    << " src2 " << src2 << " rd_old "
                                    << rd_old << " lo " << lo;
                            }
                        }
        }
    }
}

TEST(Conformance, SymbolicEffectiveAddressMatchesConcrete)
{
    const uint32_t vals[] = {0u, 1u, 100u, 0xff000u, 0x80000000u,
                             0xffffffffu};
    isa::ConcreteBuilder cb;
    for (int mode = 0; mode < 5; ++mode) {
        isa::MemPiece piece;
        piece.mode = static_cast<isa::MemMode>(mode);
        if (piece.mode == isa::MemMode::LONG_IMM)
            continue; // no memory reference
        for (int32_t imm : {0, 8, 300, -4})
            for (uint8_t shift : {0, 2, 31})
                for (uint32_t base : vals)
                    for (uint32_t index : vals) {
                        piece.imm = imm;
                        piece.shift = shift;
                        EXPECT_EQ(isa::memEffectiveAddressSymbolic(
                                      piece, cb, base, index),
                                  isa::memEffectiveAddress(piece, base,
                                                           index));
                    }
    }
}

/** Architectural outcome of executing one instruction. */
struct StepOutcome
{
    std::array<uint32_t, isa::kNumRegs> regs{};
    uint32_t lo = 0;
    uint32_t pc = 0;
    std::vector<std::pair<uint32_t, uint32_t>> mem_writes;

    bool operator==(const StepOutcome &) const = default;
};

constexpr uint32_t kMemWords = 2048;

uint32_t
memFill(uint32_t addr)
{
    return 0xabc00000u + addr * 17u;
}

StepOutcome
runOne(const isa::Instruction &inst,
       const std::array<uint32_t, isa::kNumRegs> &pre)
{
    sim::PhysMemory mem(kMemWords);
    for (uint32_t a = 1; a < 1024; ++a)
        mem.poke(a, memFill(a));
    mem.poke(0, isa::encode(inst));
    sim::FunctionalCpu cpu(mem);
    cpu.reset(0);
    cpu.setTrapHandler([](uint16_t) { return false; });
    for (int r = 1; r < isa::kNumRegs; ++r)
        cpu.setReg(r, pre[r]);
    cpu.step();

    StepOutcome out;
    for (int r = 0; r < isa::kNumRegs; ++r)
        out.regs[r] = cpu.reg(r);
    out.lo = cpu.lo();
    out.pc = cpu.pc();
    for (uint32_t a = 1; a < 1024; ++a)
        if (mem.peek(a) != memFill(a))
            out.mem_writes.emplace_back(a, mem.peek(a));
    return out;
}

/** Every opcode/operand shape of the ISA, as runnable instructions. */
std::vector<isa::Instruction>
allShapes()
{
    using isa::Instruction;
    std::vector<Instruction> shapes;

    for (int op = 0; op < isa::kNumAluOps; ++op) {
        isa::AluPiece a;
        a.op = static_cast<isa::AluOp>(op);
        if (isa::aluWritesRd(a.op))
            a.rd = 3;
        if (isa::aluReadsRs(a.op))
            a.rs = 1;
        if (a.op == isa::AluOp::MOVI8)
            a.imm8 = 77;
        if (a.op == isa::AluOp::SET) {
            for (int c = 0; c < isa::kNumConds; ++c) {
                a.cond = static_cast<isa::Cond>(c);
                a.src2 = isa::Src2::fromReg(2);
                shapes.push_back(Instruction::makeAlu(a));
                a.src2 = isa::Src2::fromImm(5);
                shapes.push_back(Instruction::makeAlu(a));
            }
            continue;
        }
        if (isa::aluReadsSrc2(a.op)) {
            a.src2 = isa::Src2::fromReg(2);
            shapes.push_back(Instruction::makeAlu(a));
            a.src2 = isa::Src2::fromImm(5);
            shapes.push_back(Instruction::makeAlu(a));
        } else {
            shapes.push_back(Instruction::makeAlu(a));
        }
    }

    for (bool is_store : {false, true}) {
        isa::MemPiece m;
        m.is_store = is_store;
        m.rd = 6;
        m.mode = isa::MemMode::ABSOLUTE;
        m.imm = 300;
        shapes.push_back(Instruction::makeMem(m));
        m.mode = isa::MemMode::DISP;
        m.base = 4;
        m.imm = 8;
        shapes.push_back(Instruction::makeMem(m));
        m.mode = isa::MemMode::BASE_INDEX;
        m.imm = 0;
        m.index = 5;
        shapes.push_back(Instruction::makeMem(m));
        m.mode = isa::MemMode::BASE_SHIFT;
        m.shift = 2;
        shapes.push_back(Instruction::makeMem(m));
    }
    {
        isa::MemPiece li;
        li.mode = isa::MemMode::LONG_IMM;
        li.rd = 6;
        li.imm = 1234;
        shapes.push_back(Instruction::makeMem(li));
    }

    {
        // Packed ALU + memory word.
        isa::AluPiece a;
        a.op = isa::AluOp::ADD;
        a.rd = 3;
        a.rs = 1;
        a.src2 = isa::Src2::fromReg(2);
        isa::MemPiece m;
        m.is_store = true;
        m.mode = isa::MemMode::DISP;
        m.base = 4;
        m.imm = 2;
        m.rd = 6;
        EXPECT_TRUE(isa::canPack(a, m));
        shapes.push_back(Instruction::makePacked(a, m));
        m.is_store = false;
        m.rd = 7;
        shapes.push_back(Instruction::makePacked(a, m));
    }

    for (isa::Cond c : {isa::Cond::ALWAYS, isa::Cond::EQ, isa::Cond::LT,
                        isa::Cond::GEU, isa::Cond::ODD}) {
        isa::BranchPiece b;
        b.cond = c;
        b.offset = 3;
        if (c != isa::Cond::ALWAYS) {
            b.rs = 1;
            b.src2 = isa::Src2::fromReg(2);
            shapes.push_back(isa::Instruction::makeBranch(b));
            b.src2 = isa::Src2::fromImm(7);
        }
        shapes.push_back(isa::Instruction::makeBranch(b));
    }

    {
        isa::JumpPiece j;
        j.kind = isa::JumpKind::DIRECT;
        j.target_addr = 5;
        shapes.push_back(isa::Instruction::makeJump(j));
        j.kind = isa::JumpKind::CALL_DIRECT;
        j.link = isa::kLinkReg;
        shapes.push_back(isa::Instruction::makeJump(j));
        j.kind = isa::JumpKind::INDIRECT;
        j.target_reg = 2;
        shapes.push_back(isa::Instruction::makeJump(j));
        j.kind = isa::JumpKind::CALL_INDIRECT;
        shapes.push_back(isa::Instruction::makeJump(j));
    }

    shapes.push_back(isa::Instruction::makeNop());
    shapes.push_back(isa::Instruction::makeHalt());
    shapes.push_back(isa::Instruction::makeTrap(7));

    return shapes;
}

TEST(Conformance, DeclaredRegUseCoversObservedSimulatorBehavior)
{
    std::array<uint32_t, isa::kNumRegs> pre{};
    for (int r = 1; r < isa::kNumRegs; ++r)
        pre[r] = 40u + static_cast<uint32_t>(r) * 13u;

    std::vector<isa::Instruction> shapes = allShapes();
    ASSERT_GE(shapes.size(), 60u);
    for (const isa::Instruction &inst : shapes) {
        std::string why = isa::validate(inst);
        ASSERT_TRUE(why.empty()) << why;
        isa::RegUse ru = isa::regUse(inst);
        StepOutcome base = runOne(inst, pre);

        // Observed *writes* must be declared.
        for (int r = 1; r < isa::kNumRegs; ++r) {
            if (base.regs[r] != pre[r]) {
                EXPECT_TRUE(ru.writesGpr(r))
                    << "undeclared write of r" << r;
            }
        }
        if (base.lo != 0) {
            EXPECT_TRUE(ru.writes_lo) << "undeclared write of LO";
        }
        if (!base.mem_writes.empty()) {
            EXPECT_TRUE(ru.writes_memory)
                << "undeclared memory write";
        }

        // Observed *reads* must be declared: perturb one register at
        // a time and watch for any change in the outcome beyond the
        // perturbed register carrying its own new value through.
        for (int r = 1; r < isa::kNumRegs; ++r) {
            std::array<uint32_t, isa::kNumRegs> pre2 = pre;
            pre2[r] += 96;
            StepOutcome alt = runOne(inst, pre2);
            bool observed = alt.mem_writes != base.mem_writes ||
                            alt.pc != base.pc || alt.lo != base.lo;
            for (int q = 1; q < isa::kNumRegs; ++q) {
                if (q == r)
                    continue;
                observed |= alt.regs[q] != base.regs[q];
            }
            if (alt.regs[r] != base.regs[r]) {
                bool carry = base.regs[r] == pre[r] &&
                             alt.regs[r] == pre2[r];
                observed |= !carry;
            }
            if (observed) {
                EXPECT_TRUE(ru.readsGpr(r))
                    << "undeclared read of r" << r;
            }
        }
    }
}

// ------------------------------------------------ alias option matrix

TEST(AliasMatrix, CorpusProvenAndCorrectUnderEveryAliasConfiguration)
{
    std::vector<workload::CorpusProgram> programs = workload::corpus();
    programs.push_back(workload::fibonacciProgram());
    programs.push_back(workload::puzzle0Program());
    programs.push_back(workload::puzzle1Program());

    const uint32_t volatile_bases[] = {
        0u,                  // everything volatile: no const disambiguation
        reorg::AliasOptions{}.volatile_base, // the production default
        0xffffffffu,         // nothing volatile: maximal disambiguation
    };

    for (uint32_t vb : volatile_bases) {
        for (const auto &program : programs) {
            SCOPED_TRACE(std::string(program.name) + " volatile_base=" +
                         std::to_string(vb));
            ReorgOptions ropts;
            ropts.alias.volatile_base = vb;
            auto exe = plc::buildExecutable(
                program.source, plc::CompileOptions{}, ropts);
            ASSERT_TRUE(exe.ok()) << exe.error().str();

            // Hazard-clean.
            VerifyReport hz = verifyReorganization(
                exe.value().legal_unit, exe.value().final_unit);
            EXPECT_TRUE(hz.clean())
                << dump(hz, exe.value().final_unit);

            // TV-proven.
            TvOptions tvopts;
            tvopts.alias = ropts.alias;
            VerifyReport tv = validateTranslation(
                exe.value().legal_unit, exe.value().final_unit,
                exe.value().tv_hints,
                reorg::blockLiveIn(exe.value().legal_unit), tvopts);
            EXPECT_TRUE(tv.clean() && tv.notes == 0)
                << dump(tv, exe.value().final_unit);

            // Differentially correct.
            auto legal = assembler::link(exe.value().legal_unit);
            ASSERT_TRUE(legal.ok());
            sim::FunctionalRun oracle =
                sim::runFunctional(legal.value(), 100'000'000);
            ASSERT_EQ(oracle.reason, sim::StopReason::HALT)
                << oracle.cpu->errorMessage();
            sim::Machine machine;
            machine.load(exe.value().program);
            ASSERT_EQ(machine.cpu().run(100'000'000),
                      sim::StopReason::HALT)
                << machine.cpu().errorMessage();
            EXPECT_EQ(machine.memory().consoleOutput(),
                      oracle.memory->consoleOutput());
        }
    }
}

} // namespace
} // namespace mips::verify
