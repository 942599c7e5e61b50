#include "core/experiments.h"

#include "asm/assembler.h"
#include "ccm/taxonomy.h"
#include "pipeline/session.h"
#include "plc/codegen.h"
#include "support/logging.h"
#include "support/table.h"
#include "workload/corpus.h"

namespace mips::tradeoff {

using support::strprintf;
using support::TextTable;

namespace {

// Every driver that runs the toolchain owns one pipeline::Session and
// passes it to the helpers below, so the stage calls of one table
// share artifacts (Table 11's four reorganizer configurations reuse
// one compile) and no Session outlives its driver or is reachable
// from another thread.

pipeline::StageOptions
layoutOptions(plc::Layout layout)
{
    pipeline::StageOptions options;
    options.compile.layout = layout;
    return options;
}

/** Paper cost assumption: memory instructions 4 cycles, ALU 1. */
double
sequenceCost(pipeline::Session &session, std::string_view asm_text)
{
    auto assembled = session.assemble(asm_text);
    if (!assembled.ok())
        support::panic("sequence fragment: %s",
                       assembled.error().str().c_str());
    double cost = 0;
    for (const assembler::Item &item : assembled.value()->unit.items) {
        if (item.is_data || item.inst.isNop())
            continue;
        cost += item.inst.referencesMemory() ? 4.0 : 1.0;
    }
    return cost;
}

/** Parse + analyze a corpus program; the AST lives as long as the
 *  session. */
const plc::ProgramAst &
parseOrDie(pipeline::Session &session,
           const workload::CorpusProgram &program, plc::Layout layout)
{
    auto parsed = session.parse(program.source, layout);
    if (!parsed.ok()) {
        support::panic("parsing %s failed: %s", program.name,
                       parsed.error().str().c_str());
    }
    return parsed.value()->ast;
}

/** Run one program with reference profiling through the session. */
pipeline::SimRef
profileOrDie(pipeline::Session &session, const char *name,
             const char *source, plc::Layout layout)
{
    pipeline::StageOptions options = layoutOptions(layout);
    options.sim.profile = true;
    auto result = session.simulate(source, options);
    if (!result.ok()) {
        support::panic("profiling %s failed: %s", name,
                       result.error().str().c_str());
    }
    if (result.value()->stop != sim::StopReason::HALT) {
        support::panic("profiling %s: program did not halt: %s", name,
                       result.value()->error.c_str());
    }
    return result.value();
}

/** Profile the whole corpus and merge. */
workload::ProfileResult
profileCorpusOrDie(pipeline::Session &session, plc::Layout layout)
{
    workload::ProfileResult merged;
    for (const workload::CorpusProgram &program : workload::corpus()) {
        pipeline::SimRef run =
            profileOrDie(session, program.name, program.source, layout);
        merged.refs.merge(run->refs);
        merged.cycles += run->cycles;
        merged.free_data_cycles += run->free_data_cycles;
    }
    return merged;
}

} // namespace

// --------------------------------------------------------------- Table 1

double
Table1Result::coveredByImm4() const
{
    return dist.dist.fraction("0") + dist.dist.fraction("1") +
           dist.dist.fraction("2") + dist.dist.fraction("3-15");
}

double
Table1Result::coveredByImm8() const
{
    return coveredByImm4() + dist.dist.fraction("16-255");
}

Table1Result
runTable1()
{
    pipeline::Session session;
    Table1Result result;
    for (const workload::CorpusProgram &program : workload::corpus()) {
        workload::collectConstants(
            parseOrDie(session, program, plc::Layout::WORD_ALLOCATED),
            &result.dist);
    }

    static const std::pair<const char *, double> kPaper[] = {
        {"0", 0.248}, {"1", 0.190}, {"2", 0.041},
        {"3-15", 0.208}, {"16-255", 0.268}, {">255", 0.045},
    };
    TextTable t("Table 1: Constant distribution in programs");
    t.setHeader({"Absolute value", "Paper", "Measured"});
    for (const auto &[bucket, paper] : kPaper) {
        t.addRow({bucket, TextTable::pct(paper),
                  TextTable::pct(result.dist.dist.fraction(bucket))});
    }
    t.addSeparator();
    t.addRow({"covered by 4-bit constant", "~70%",
              TextTable::pct(result.coveredByImm4())});
    t.addRow({"covered by 8-bit immediate", "~95%",
              TextTable::pct(result.coveredByImm8())});
    result.table = t.render();
    return result;
}

// --------------------------------------------------------------- Table 2

std::string
runTable2()
{
    return ccm::taxonomyTable();
}

// --------------------------------------------------------------- Table 3

Table3Result
runTable3()
{
    Table3Result result;
    for (const workload::CorpusProgram &program : workload::corpus()) {
        // The paper measures the code generator's output, before the
        // peephole pass.
        auto compiled = plc::compile(program.source);
        if (!compiled.ok()) {
            support::panic("compiling %s failed: %s", program.name,
                           compiled.error().str().c_str());
        }
        workload::collectCcSavings(compiled.value(), &result.savings);
    }

    TextTable t("Table 3: Use of condition codes");
    t.setHeader({"Quantity", "Paper", "Measured"});
    t.addRow({"Compares without condition codes", "2324",
              strprintf("%llu", static_cast<unsigned long long>(
                  result.savings.compares))});
    t.addRow({"Saved, CC set by operators only", "1.1%",
              TextTable::pct(result.savings.fracSavedByOps())});
    t.addRow({"Saved, CC set by operators and moves", "2.1%",
              TextTable::pct(result.savings.fracSavedWithMoves())});
    t.addRow({"Moves used only to set CC", "706",
              strprintf("%llu", static_cast<unsigned long long>(
                  result.savings.moves_for_cc))});
    result.table = t.render();
    return result;
}

// --------------------------------------------------------------- Table 4

Table4Result
runTable4()
{
    pipeline::Session session;
    Table4Result result;
    for (const workload::CorpusProgram &program : workload::corpus()) {
        workload::collectBoolExprs(
            parseOrDie(session, program, plc::Layout::WORD_ALLOCATED),
            &result.shape);
    }

    TextTable t("Table 4: Boolean expressions");
    t.setHeader({"Quantity", "Paper", "Measured"});
    t.addRow({"Average operators/boolean expression", "1.66",
              TextTable::num(result.shape.meanOperators())});
    t.addRow({"Boolean expressions ending in jumps", "80.9%",
              TextTable::pct(result.shape.fracJump())});
    t.addRow({"Boolean expressions ending in stores", "19.1%",
              TextTable::pct(1.0 - result.shape.fracJump())});
    result.table = t.render();
    return result;
}

// --------------------------------------------------------------- Table 5

Table5Result
runTable5()
{
    Table5Result result;

    static const std::pair<ccm::Style, const char *> kStyles[] = {
        {ccm::Style::SET_CONDITIONALLY, "2/1/0"},
        {ccm::Style::CC_COND_SET, "2/3/0"},
        {ccm::Style::CC_BRANCH_FULL, "2/2/2"},
        {ccm::Style::CC_BRANCH_EARLY_OUT, "2/0/2 (dyn 2/0/1.5)"},
    };

    TextTable t("Table 5: Compare/Register/Branch instructions per "
                "boolean operator");
    t.setHeader({"Architectural support", "Paper", "Measured static",
                 "Measured dynamic"});
    for (const auto &[style, paper] : kStyles) {
        // Counts for a one-operator expression, excluding the final
        // result store (the paper charges the ending separately).
        ccm::BoolExprPtr e1 = ccm::orChain(1);
        ccm::Context ctx = style == ccm::Style::CC_BRANCH_EARLY_OUT
            ? ccm::Context::JUMP : ccm::Context::STORE;
        ccm::CcProgram p1 = ccm::generate(*e1, style, ctx);
        ccm::ClassCounts s1 = ccm::staticCounts(p1);
        ccm::ClassCounts d1 = ccm::expectedDynamicCounts(p1, *e1);
        if (ctx == ccm::Context::STORE) {
            s1.reg -= 1; // the trailing store of the result
            d1.reg -= 1;
        }

        Table5Row row;
        row.style = ccm::styleName(style);
        row.static_counts = s1;
        row.dynamic_counts = d1;
        t.addRow({row.style, paper,
                  strprintf("%.0f/%.0f/%.0f", row.static_counts.compare,
                            row.static_counts.reg,
                            row.static_counts.branch),
                  strprintf("%.2f/%.2f/%.2f",
                            row.dynamic_counts.compare,
                            row.dynamic_counts.reg,
                            row.dynamic_counts.branch)});
        result.rows.push_back(row);
    }
    result.table = t.render();
    return result;
}

// --------------------------------------------------------------- Table 6

Table6Result
runTable6(bool use_paper_mix)
{
    Table6Result result;
    if (use_paper_mix) {
        result.mix = ccm::ExprMix{};
    } else {
        Table4Result table4 = runTable4();
        result.mix.mean_operators = table4.shape.meanOperators();
        result.mix.frac_jump = table4.shape.fracJump();
        result.mix.frac_store = 1.0 - result.mix.frac_jump;
    }

    static const std::tuple<ccm::Style, const char *, const char *>
        kStyles[] = {
        {ccm::Style::SET_CONDITIONALLY, "Set conditionally/no CC",
         "9.3 / 13.3 / 12.5"},
        {ccm::Style::CC_COND_SET, "CC/conditional set",
         "14.9 / 18.9 / 18.0"},
        {ccm::Style::CC_BRANCH_FULL, "CC with only branch (full)",
         "27.9 / 26.9 / 26.9"},
        {ccm::Style::CC_BRANCH_EARLY_OUT,
         "CC with only branch (early-out)", "20.5 / 19.5 / 19.7"},
    };

    TextTable t(strprintf("Table 6: Cost of evaluating boolean "
                          "expressions (mix: %.2f ops/expr, %.0f%% "
                          "jumps)", result.mix.mean_operators,
                          result.mix.frac_jump * 100));
    t.setHeader({"Support", "Paper store/jump/total",
                 "Store", "Jump", "Total"});
    double full_total = 0, condset_total = 0, setcond_total = 0;
    for (const auto &[style, name, paper] : kStyles) {
        Table6Row row;
        row.style = name;
        row.entry = ccm::table6Entry(style, result.mix);
        t.addRow({name, paper, TextTable::num(row.entry.store_cost, 1),
                  TextTable::num(row.entry.jump_cost, 1),
                  TextTable::num(row.entry.total_cost, 1)});
        if (style == ccm::Style::CC_BRANCH_FULL)
            full_total = row.entry.total_cost;
        if (style == ccm::Style::CC_COND_SET)
            condset_total = row.entry.total_cost;
        if (style == ccm::Style::SET_CONDITIONALLY)
            setcond_total = row.entry.total_cost;
        result.rows.push_back(row);
    }
    result.improvement_cond_set = 1.0 - condset_total / full_total;
    result.improvement_set_cond = 1.0 - setcond_total / full_total;
    t.addSeparator();
    t.addRow({"Improvement, conditional set vs CC", "33.0%",
              TextTable::pct(result.improvement_cond_set)});
    t.addRow({"Improvement, set conditionally vs CC", "53.5%",
              TextTable::pct(result.improvement_set_cond)});
    result.table = t.render();
    return result;
}

// -------------------------------------------------------- Tables 7 & 8

namespace {

RefPatternResult
runRefPattern(plc::Layout layout, const char *title,
              const double paper[4])
{
    pipeline::Session session;
    workload::ProfileResult profile = profileCorpusOrDie(session, layout);

    RefPatternResult result;
    result.refs = profile.refs;
    result.free_bandwidth = profile.freeBandwidth();

    const workload::RefPattern &r = result.refs;
    double total = static_cast<double>(r.total());
    auto pct = [&](uint64_t n) {
        return TextTable::pct(static_cast<double>(n) / total);
    };

    TextTable t(title);
    t.setHeader({"Reference class", "Paper", "Measured"});
    t.addRow({"8-bit loads", TextTable::pct(paper[0]), pct(r.loads8)});
    t.addRow({"32-bit loads", TextTable::pct(paper[1]),
              pct(r.loads32)});
    t.addRow({"8-bit stores", TextTable::pct(paper[2]),
              pct(r.stores8)});
    t.addRow({"32-bit stores", TextTable::pct(paper[3]),
              pct(r.stores32)});
    t.addSeparator();
    t.addRow({"all loads", "71.2%",
              pct(r.loads8 + r.loads32)});
    t.addRow({"all stores", "28.7%",
              pct(r.stores8 + r.stores32)});
    double char_total = static_cast<double>(r.charTotal());
    if (char_total > 0) {
        t.addRow({"character loads of all char refs", "66.7%",
                  TextTable::pct(
                      static_cast<double>(r.char_loads8 +
                                          r.char_loads32) /
                      char_total)});
    }
    result.table = t.render();
    return result;
}

} // namespace

RefPatternResult
runTable7()
{
    static const double paper[4] = {0.026, 0.686, 0.026, 0.262};
    return runRefPattern(plc::Layout::WORD_ALLOCATED,
                         "Table 7: Data reference patterns in "
                         "word-allocated programs", paper);
}

RefPatternResult
runTable8()
{
    static const double paper[4] = {0.066, 0.646, 0.059, 0.229};
    return runRefPattern(plc::Layout::BYTE_ALLOCATED,
                         "Table 8: Data reference patterns in "
                         "byte-allocated programs", paper);
}

// --------------------------------------------------------------- Table 9

Table9Result
runTable9(double overhead)
{
    pipeline::Session session;
    Table9Result result;
    result.overhead = overhead;

    // The MIPS sequences are the paper's own (Section 4.1), measured
    // from real assembled code. The byte-addressed machine performs
    // each logical operation as a single reference but pays `overhead`
    // on the fetch path of *every* operand reference.
    struct Spec
    {
        const char *name;
        const char *mips_seq;     ///< word-addressed MIPS code
        double byte_machine_cost; ///< single reference
        const char *paper;        ///< paper's byte/overhead/MIPS cells
    };
    static const Spec kSpecs[] = {
        {"load from packed array",
         "ld (r1+r2>>2), r3\nxc r2, r3, r3\n", 4, "4 / 4.6 / 6"},
        {"store into packed array",
         "ld (r1+r2>>2), r4\nmtlo r2\nic r3, r4\nst r4, (r1+r2>>2)\n",
         4, "4 / 4.6 / 8-12"},
        {"load byte via pointer",
         "ld (r0+r2>>2), r3\nxc r2, r3, r3\n", 4, "6 / 6.9 / 8"},
        {"store byte via pointer",
         "ld (r0+r2>>2), r4\nmtlo r2\nic r3, r4\nst r4, (r0+r2>>2)\n",
         4, "6 / 6.9 / 10-18"},
        {"load word", "ld 2(r1), r3\n", 4, "4 / 4.6 / 4"},
        {"store word", "st r3, 2(r1)\n", 4, "4 / 4.6 / 4"},
    };

    TextTable t(strprintf("Table 9: Cost of byte operations "
                          "(overhead %.0f%%)", overhead * 100));
    t.setHeader({"Operation", "Paper byte/ovh/MIPS", "Byte machine",
                 "Byte + overhead", "MIPS (word)"});
    for (const Spec &spec : kSpecs) {
        Table9Row row;
        row.operation = spec.name;
        row.cost_byte_machine = spec.byte_machine_cost;
        row.cost_byte_overhead = spec.byte_machine_cost *
                                 (1.0 + overhead);
        row.cost_mips = sequenceCost(session, spec.mips_seq);
        t.addRow({spec.name, spec.paper,
                  TextTable::num(row.cost_byte_machine, 1),
                  TextTable::num(row.cost_byte_overhead, 1),
                  TextTable::num(row.cost_mips, 1)});
        result.rows.push_back(row);
    }
    result.table = t.render();
    return result;
}

// -------------------------------------------------------------- Table 10

Table10Result
runTable10(double overhead)
{
    Table10Result result;
    result.overhead = overhead;
    Table9Result table9 = runTable9(overhead);

    auto costOf = [&table9](const std::string &name) {
        for (const Table9Row &row : table9.rows)
            if (row.operation == name)
                return row;
        support::panic("Table 9 row '%s' missing", name.c_str());
    };
    Table9Row byte_load = costOf("load from packed array");
    Table9Row byte_store = costOf("store into packed array");
    Table9Row word_load = costOf("load word");
    Table9Row word_store = costOf("store word");

    plc::Layout layouts[2] = {plc::Layout::WORD_ALLOCATED,
                              plc::Layout::BYTE_ALLOCATED};
    const char *names[2] = {"word-allocated", "byte-allocated"};

    TextTable t(strprintf("Table 10: Cost of byte- vs word-addressed "
                          "architectures (overhead %.0f%%)",
                          overhead * 100));
    t.setHeader({"Layout", "Word-addr MIPS cost/ref",
                 "Byte-addr MIPS cost/ref", "Byte penalty",
                 "Paper penalty"});
    const char *paper_penalty[2] = {"9 - 11.8%", "7.7 - 14.6%"};
    pipeline::Session session;
    for (int i = 0; i < 2; ++i) {
        workload::ProfileResult profile =
            profileCorpusOrDie(session, layouts[i]);
        const workload::RefPattern &r = profile.refs;
        double total = static_cast<double>(r.total());

        double word_cost =
            (static_cast<double>(r.loads8) * byte_load.cost_mips +
             static_cast<double>(r.stores8) * byte_store.cost_mips +
             static_cast<double>(r.loads32) * word_load.cost_mips +
             static_cast<double>(r.stores32) * word_store.cost_mips) /
            total;
        // On the byte-addressed machine every logical reference is a
        // single access paying the overhead.
        double byte_cost =
            (static_cast<double>(r.loads8 + r.stores8) *
                 byte_load.cost_byte_overhead +
             static_cast<double>(r.loads32) *
                 word_load.cost_byte_overhead +
             static_cast<double>(r.stores32) *
                 word_store.cost_byte_overhead) /
            total;

        result.word_machine_cost[i] = word_cost;
        result.byte_machine_cost[i] = byte_cost;
        result.penalty[i] = (byte_cost - word_cost) / word_cost;
        t.addRow({names[i], TextTable::num(word_cost, 3),
                  TextTable::num(byte_cost, 3),
                  TextTable::pct(result.penalty[i]),
                  paper_penalty[i]});
    }
    result.table = t.render();
    return result;
}

// -------------------------------------------------------------- Table 11

Table11Result
runTable11()
{
    pipeline::Session session;
    Table11Result result;

    const workload::CorpusProgram *programs[] = {
        &workload::fibonacciProgram(),
        &workload::puzzle0Program(),
        &workload::puzzle1Program(),
    };

    TextTable t("Table 11: Cumulative improvements with postpass "
                "optimization (static instruction counts)");
    t.setHeader({"Optimization", "Fibonacci", "Puzzle 0", "Puzzle 1"});

    for (const workload::CorpusProgram *program : programs) {
        Table11Program entry;
        entry.name = program->name;

        pipeline::StageOptions none;
        none.reorg.reorder = false;
        none.reorg.pack = false;
        none.reorg.fill_delay = false;
        pipeline::StageOptions reorder = none;
        reorder.reorg.reorder = true;
        pipeline::StageOptions pack = reorder;
        pack.reorg.pack = true;
        pipeline::StageOptions full = pack;
        full.reorg.fill_delay = true;

        // The four configurations share one compile artifact; only
        // the reorganize stage re-runs per toggle.
        auto countStage = [&](const pipeline::StageOptions &opts) {
            auto exe = session.reorganize(program->source, opts);
            if (!exe.ok())
                support::panic("building %s failed: %s", program->name,
                               exe.error().str().c_str());
            size_t instructions = 0;
            for (const auto &item : exe.value()->final_unit.items)
                if (!item.is_data)
                    ++instructions;
            return instructions;
        };

        entry.none = countStage(none);
        entry.reorganized = countStage(reorder);
        entry.packed = countStage(pack);
        entry.branch_delay = countStage(full);

        // Correctness: the fully optimized program must still run.
        auto run = session.simulate(program->source, full);
        if (!run.ok())
            support::panic("running %s failed: %s", program->name,
                           run.error().str().c_str());
        if (run.value()->stop != sim::StopReason::HALT) {
            support::panic("optimized %s failed to run: %s",
                           program->name, run.value()->error.c_str());
        }
        entry.output = run.value()->console;
        result.programs.push_back(std::move(entry));
    }

    auto row = [&](const char *label, auto member) {
        std::vector<std::string> cells{label};
        for (const Table11Program &p : result.programs)
            cells.push_back(strprintf("%zu", member(p)));
        t.addRow(cells);
    };
    row("None (no-ops inserted)",
        [](const Table11Program &p) { return p.none; });
    row("Reorganization",
        [](const Table11Program &p) { return p.reorganized; });
    row("Packing",
        [](const Table11Program &p) { return p.packed; });
    row("Branch delay",
        [](const Table11Program &p) { return p.branch_delay; });
    t.addSeparator();
    std::vector<std::string> improvement{"Total improvement"};
    for (const Table11Program &p : result.programs)
        improvement.push_back(TextTable::pct(p.totalImprovement()));
    t.addRow(improvement);
    std::vector<std::string> paper{"(paper)", "20.6%", "24.8%", "35.1%"};
    t.addRow(paper);
    result.table = t.render();
    return result;
}

// ------------------------------------------------------- Figures 1-3

std::string
runFigures1to3()
{
    ccm::BoolExprPtr expr = ccm::paperExample();
    std::string out;
    out += "Boolean expression: Found := " + ccm::exprToString(*expr) +
           "\n\n";

    struct Fig
    {
        const char *title;
        ccm::Style style;
    };
    static const Fig kFigs[] = {
        {"Figure 1a: full evaluation (CC, branch access only)",
         ccm::Style::CC_BRANCH_FULL},
        {"Figure 1b: early-out evaluation (CC, branch access only)",
         ccm::Style::CC_BRANCH_EARLY_OUT},
        {"Figure 2: conditional set based on CC",
         ccm::Style::CC_COND_SET},
        {"Figure 3: MIPS set conditionally",
         ccm::Style::SET_CONDITIONALLY},
    };
    for (const Fig &fig : kFigs) {
        ccm::CcProgram prog = ccm::generate(*expr, fig.style,
                                            ccm::Context::STORE);
        ccm::ClassCounts dynamic = ccm::expectedDynamicCounts(prog,
                                                              *expr);
        out += std::string(fig.title) + "\n";
        out += prog.listing();
        out += strprintf("  %d static instructions, %d branches, "
                         "average %.2f executed\n\n",
                         prog.staticCount(),
                         prog.staticCount(ccm::CcClass::BRANCH),
                         dynamic.total());
    }
    return out;
}

// ---------------------------------------------------------- Figure 4

std::string
runFigure4()
{
    // The paper's Figure 4 fragment, expressed as legal code.
    const char *fragment =
        "    ld 2(r13), r1\n"
        "    ble r1, #1, l11\n"
        "    sub r1, #1, r2\n"
        "    st r2, 2(r13)\n"
        "    ld 3(r13), r5\n"
        "    add r5, r1, r5\n"
        "    add r4, #1, r4\n"
        "    bra l3\n"
        "l11:\n"
        "    movi #0, r2\n"
        "l3:\n"
        "    st r4, 5(r13)\n"
        "    halt\n";
    const pipeline::Source source(fragment, pipeline::Language::ASSEMBLY);
    pipeline::Session session;
    auto reorganized = [&](const pipeline::StageOptions &options) {
        auto reorg = session.reorganize(source, options);
        if (!reorg.ok())
            support::panic("figure 4 fragment: %s",
                           reorg.error().str().c_str());
        return reorg.take();
    };

    pipeline::StageOptions none;
    none.reorg.reorder = false;
    none.reorg.pack = false;
    none.reorg.fill_delay = false;
    pipeline::ReorgRef noops = reorganized(none);
    pipeline::ReorgRef full = reorganized(pipeline::StageOptions{});

    std::string out = "Figure 4: reorganization, packing, and branch "
                      "delay\n\nLegal code:\n";
    out += assembler::listUnit(*full->legal);
    out += strprintf("\nWith no-ops (%zu words):\n",
                     noops->final_unit.items.size());
    out += assembler::listUnit(noops->final_unit);
    out += strprintf("\nReorganized (%zu words, %zu packed, "
                     "%zu slots filled):\n",
                     full->final_unit.items.size(),
                     full->stats.packed_words,
                     full->stats.slots_filled_move +
                         full->stats.slots_filled_dup +
                         full->stats.slots_filled_hoist);
    out += assembler::listUnit(full->final_unit);
    return out;
}

// ------------------------------------------------- Dispatch tradeoff

namespace {

/** Measure one source under both CASE lowerings. */
DispatchMeasurement
measureDispatch(pipeline::Session &session, const std::string &name,
                const char *source)
{
    DispatchMeasurement m;
    m.name = name;
    for (bool tables : {false, true}) {
        pipeline::StageOptions options;
        options.compile.jump_tables = tables;

        auto exe = session.reorganize(source, options);
        if (!exe.ok())
            support::panic("building %s failed: %s", name.c_str(),
                           exe.error().str().c_str());
        size_t words = exe.value()->final_unit.items.size();

        auto run = session.simulate(source, options);
        if (!run.ok())
            support::panic("running %s failed: %s", name.c_str(),
                           run.error().str().c_str());
        if (run.value()->stop != sim::StopReason::HALT) {
            support::panic("dispatch program %s did not halt: %s",
                           name.c_str(), run.value()->error.c_str());
        }
        if (tables) {
            m.table_words = words;
            m.table_cycles = run.value()->cycles;
        } else {
            m.chain_words = words;
            m.chain_cycles = run.value()->cycles;
        }
        if (m.output.empty()) {
            m.output = run.value()->console;
        } else if (m.output != run.value()->console) {
            support::panic("%s: CASE lowerings disagree: '%s' vs '%s'",
                           name.c_str(), m.output.c_str(),
                           run.value()->console.c_str());
        }
    }
    return m;
}

/** A hot loop dispatching over a dense CASE of `arms` labels. */
std::string
densityProgram(int arms)
{
    std::string src = strprintf(
        "program dispatch%d;\n"
        "var i, k, s: integer;\n"
        "begin\n"
        "  s := 0;\n"
        "  for i := 0 to 199 do begin\n"
        "    k := i mod %d;\n"
        "    case k of\n",
        arms, arms);
    for (int a = 0; a < arms; ++a) {
        src += strprintf("      %d: s := s + %d%s\n", a, a + 1,
                         a + 1 < arms ? ";" : "");
    }
    src += "    end;\n"
           "  end;\n"
           "  writeint(s);\n"
           "end.\n";
    return src;
}

} // namespace

DispatchResult
runDispatchStudy()
{
    pipeline::Session session;
    DispatchResult result;
    for (const workload::CorpusProgram &program :
         workload::dispatchCorpus()) {
        result.programs.push_back(
            measureDispatch(session, program.name, program.source));
    }

    static const int kArms[] = {2, 4, 8, 16, 32};
    for (int arms : kArms) {
        std::string source = densityProgram(arms);
        result.density.push_back(measureDispatch(
            session, strprintf("case/%d", arms), source.c_str()));
    }

    TextTable t("Dispatch tradeoff: branch chain vs jump table "
                "(CASE lowering)");
    t.setHeader({"Program", "Words chain", "Words table",
                 "Cycles chain", "Cycles table", "Table speedup"});
    auto addRows = [&](const std::vector<DispatchMeasurement> &ms) {
        for (const DispatchMeasurement &m : ms) {
            t.addRow({m.name, strprintf("%zu", m.chain_words),
                      strprintf("%zu", m.table_words),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            m.chain_cycles)),
                      strprintf("%llu", static_cast<unsigned long long>(
                                            m.table_cycles)),
                      TextTable::pct(m.tableSpeedup())});
        }
    };
    addRows(result.programs);
    t.addSeparator();
    addRows(result.density);
    result.table = t.render();
    return result;
}

// ------------------------------------------------------ Free cycles

FreeCyclesResult
runFreeCycles()
{
    pipeline::Session session;
    FreeCyclesResult result;

    result.corpus_free =
        profileCorpusOrDie(session, plc::Layout::WORD_ALLOCATED)
            .freeBandwidth();

    workload::ProfileResult merged;
    for (const workload::CorpusProgram *program :
         {&workload::fibonacciProgram(), &workload::puzzle0Program(),
          &workload::puzzle1Program()}) {
        pipeline::SimRef p =
            profileOrDie(session, program->name, program->source,
                         plc::Layout::WORD_ALLOCATED);
        merged.cycles += p->cycles;
        merged.free_data_cycles += p->free_data_cycles;
    }
    result.benchmark_free = merged.freeBandwidth();

    TextTable t("Free memory cycles (Section 3.1)");
    t.setHeader({"Workload", "Paper", "Measured free data bandwidth"});
    t.addRow({"analysis corpus", "~40%",
              TextTable::pct(result.corpus_free)});
    t.addRow({"fib + puzzle benchmarks", "~40%",
              TextTable::pct(result.benchmark_free)});
    result.table = t.render();
    return result;
}

} // namespace mips::tradeoff
