// The benchmark's workloads (see perfbench/METRICS.md for why each
// exists and which layers it loads and bypasses).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace sgla {
namespace perfbench {

/// One caller, closed loop, in-process Engine::Solve on a large unsharded
/// graph: cold exact SGLA cluster, SGLA+ cluster and SGLA+ embed in turn.
void SolveExact(Run* run);

/// Durable server: a closed-loop writer streams GraphDeltas over RPC while
/// a reader re-solves warm; then the engine is reopened on its data dir.
void UpdateStream(Run* run);

}  // namespace perfbench
}  // namespace sgla

#endif  // PERFBENCH_WORKLOADS_H_
