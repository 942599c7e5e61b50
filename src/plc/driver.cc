#include "plc/driver.h"

#include "plc/optimize.h"

namespace mips::plc {

support::Result<Executable>
buildExecutable(std::string_view source,
                const CompileOptions &compile_options,
                const reorg::ReorgOptions &reorg_options)
{
    auto compiled = compile(source, compile_options);
    if (!compiled.ok())
        return compiled.error();

    Executable exe;
    exe.legal_unit = compiled.take();
    exe.peephole = eliminateRedundantLoads(&exe.legal_unit);

    reorg::ReorgResult reorganized =
        reorg::reorganize(exe.legal_unit, reorg_options);
    exe.reorg_stats = reorganized.stats;
    exe.tv_hints = std::move(reorganized.hints);
    exe.final_unit = std::move(reorganized.unit);

    auto program = assembler::link(exe.final_unit);
    if (!program.ok())
        return program.error();
    exe.program = program.take();
    return exe;
}

} // namespace mips::plc
