/**
 * @file
 * IR digest gate: a fingerprint of every legal and reorganized unit
 * the reorganizer produces over the corpora, the Table 11 programs
 * and a generated batch, under every fuzz matrix config. A change to
 * how units are represented must leave every line of
 * tests/golden/ir_digest.txt unchanged: the listings, the per-item
 * metadata, the linked image (or link error), the reorganizer's
 * statistics, its scheme-2 hints and its live-in masks.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "asm/unit.h"
#include "fuzz/differ.h"
#include "fuzz/generator.h"
#include "pipeline/session.h"
#include "support/logging.h"
#include "workload/corpus.h"

namespace {

using namespace mips;

/** FNV-1a, 64 bit, fed field by field. */
class Fnv
{
  public:
    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    text(std::string_view s)
    {
        num(s.size());
        bytes(s.data(), s.size());
    }

    void
    num(uint64_t v)
    {
        bytes(&v, sizeof(v));
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

void
hashUnit(Fnv *h, const assembler::Unit &unit)
{
    h->text(assembler::listUnit(unit));
    for (const assembler::Item &item : unit.items) {
        h->num(item.no_reorder);
        h->num(item.is_data);
        h->num(static_cast<uint64_t>(
            static_cast<int64_t>(item.source_line)));
        h->num(item.ref_size);
        h->num(item.ref_is_char);
    }
}

/** One golden line: sizes of both units and the digest of the rest. */
std::string
digestLine(const std::string &name, const std::string &tag,
           const pipeline::ReorgArtifact &a)
{
    Fnv h;
    hashUnit(&h, *a.legal);
    hashUnit(&h, a.final_unit);
    if (a.link_error) {
        h.text(a.link_error->str());
    } else {
        h.num(a.program.origin);
        h.num(a.program.image.size());
        for (uint32_t word : a.program.image)
            h.num(word);
    }
    const reorg::ReorgStats &s = a.stats;
    for (size_t v : {s.input_words, s.output_words, s.noops_inserted,
                     s.packed_words, s.slots_filled_move,
                     s.slots_filled_dup, s.slots_filled_hoist})
        h.num(v);
    h.num(a.hints.size());
    for (const reorg::DupHint &hint : a.hints) {
        h.text(a.final_unit.labels.name(hint.orig_label));
        h.text(a.final_unit.labels.name(hint.dup_label));
        h.num(hint.words);
    }
    h.num(a.live_in.size());
    for (const reorg::BlockLiveIn &block : a.live_in) {
        h.num(block.start);
        h.num(block.mask);
    }
    return support::strprintf("%s %s %zu %zu %016llx\n", name.c_str(),
                              tag.c_str(), a.legal->items.size(),
                              a.final_unit.items.size(),
                              static_cast<unsigned long long>(h.value()));
}

/** The digest of every (program, config) pair, one line each. */
std::string
renderDigest()
{
    struct Program
    {
        std::string name;
        std::string text;
        bool pascal;
    };
    std::vector<Program> programs;
    for (const auto *set : {&workload::corpus(), &workload::dispatchCorpus()})
        for (const workload::CorpusProgram &p : *set)
            programs.push_back({p.name, p.source, true});
    for (const workload::CorpusProgram *p :
         {&workload::fibonacciProgram(), &workload::puzzle0Program(),
          &workload::puzzle1Program()})
        programs.push_back({p->name, p->source, true});
    for (const fuzz::GeneratedProgram &g : fuzz::generateBatch(1982, 100))
        programs.push_back(
            {g.name, g.render(), g.kind == fuzz::ProgramKind::PASCAL});

    std::string out;
    for (const Program &p : programs) {
        pipeline::Session session;
        const pipeline::Source source(
            p.text, p.pascal ? pipeline::Language::PASCAL
                             : pipeline::Language::ASSEMBLY);
        for (const fuzz::FuzzConfig &config :
             p.pascal ? fuzz::pascalMatrix() : fuzz::asmMatrix()) {
            pipeline::StageOptions o;
            o.compile.layout = config.layout;
            o.compile.jump_tables = config.jump_tables;
            o.reorg = config.reorg;
            auto reorg = session.reorganize(source, o);
            if (!reorg.ok()) {
                out += p.name + " " + config.tag + " error " +
                       reorg.error().str() + "\n";
                continue;
            }
            out += digestLine(p.name, config.tag, *reorg.value());
        }
    }
    return out;
}

/**
 * On a mismatch the rendered digest is written to ir_digest.actual.txt
 * in the test's working directory. The golden changes only with an
 * intended change to what the reorganizer emits; a change to the IR's
 * representation alone must leave it as it is.
 */
TEST(IrDigest, UnitsMatchGolden)
{
    const std::string path = MIPS82_GOLDEN_DIR "/ir_digest.txt";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    std::string actual = renderDigest();
    if (actual == golden.str())
        return;

    std::ofstream("ir_digest.actual.txt", std::ios::binary) << actual;
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
    ADD_FAILURE() << path << " differs from ir_digest.actual.txt from "
                  << "line " << line << "\n  golden: " << w
                  << "\n  actual: " << g;
}

} // namespace
