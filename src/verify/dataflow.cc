#include "verify/dataflow.h"

#include "support/logging.h"

namespace mips::verify {

namespace {

/** All GPRs except the hardwired-zero register. */
constexpr uint16_t kAllRegs = 0xfffe;

inline uint16_t
meetOp(Meet meet, uint16_t a, uint16_t b)
{
    return meet == Meet::UNION ? static_cast<uint16_t>(a | b)
                               : static_cast<uint16_t>(a & b);
}

/** Identity of the meet: folding it in changes nothing. */
inline uint16_t
meetIdentity(Meet meet)
{
    return meet == Meet::UNION ? 0 : 0xffff;
}

} // namespace

DataflowSolution
solve(const Cfg &cfg, const DataflowProblem &problem)
{
    size_t n = cfg.size();
    if (problem.gen.size() != n || problem.kill.size() != n) {
        support::panic("dataflow: gen/kill size %zu/%zu != cfg size %zu",
                       problem.gen.size(), problem.kill.size(), n);
    }
    DataflowSolution sol;
    uint16_t init = meetIdentity(problem.meet);
    sol.in.assign(n, init);
    sol.out.assign(n, init);

    bool forward = problem.direction == Direction::FORWARD;
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k < n; ++k) {
            size_t i = forward ? k : n - 1 - k;
            const CfgNode &node = cfg.nodes[i];
            uint16_t edge = meetIdentity(problem.meet);
            if (forward) {
                for (uint32_t p : cfg.preds(i))
                    edge = meetOp(problem.meet, edge, sol.out[p]);
                if (node.unknown_pred) {
                    edge = meetOp(problem.meet, edge,
                                  i == 0 ? problem.entry
                                         : problem.boundary);
                }
            } else {
                for (uint32_t s : cfg.succs(i))
                    edge = meetOp(problem.meet, edge, sol.in[s]);
                if (node.unknown_succ)
                    edge = meetOp(problem.meet, edge, problem.boundary);
            }
            uint16_t before = static_cast<uint16_t>(
                (edge & ~problem.kill[i]) | problem.gen[i]);
            uint16_t *edge_slot = forward ? &sol.in[i] : &sol.out[i];
            uint16_t *xfer_slot = forward ? &sol.out[i] : &sol.in[i];
            if (*edge_slot != edge || *xfer_slot != before) {
                *edge_slot = edge;
                *xfer_slot = before;
                changed = true;
            }
        }
    }
    return sol;
}

DataflowSolution
liveness(const Cfg &cfg)
{
    DataflowProblem p;
    p.direction = Direction::BACKWARD;
    p.meet = Meet::UNION;
    p.boundary = kAllRegs; // unknown code may read anything
    size_t n = cfg.size();
    p.gen.resize(n);
    p.kill.resize(n);
    for (size_t i = 0; i < n; ++i) {
        p.gen[i] = cfg.uses[i].gpr_reads;
        p.kill[i] = cfg.uses[i].gpr_writes;
    }
    return solve(cfg, p);
}

DataflowSolution
definiteAssignment(const Cfg &cfg, uint16_t assumed)
{
    DataflowProblem p;
    p.direction = Direction::FORWARD;
    p.meet = Meet::INTERSECT;
    p.boundary = 0xffff; // unknown callers may have set up anything
    p.entry = assumed | 1; // r0 always reads as a defined zero
    size_t n = cfg.size();
    p.gen.resize(n);
    p.kill.assign(n, 0);
    for (size_t i = 0; i < n; ++i)
        p.gen[i] = cfg.uses[i].gpr_writes;
    return solve(cfg, p);
}

} // namespace mips::verify
