// The layer ladder: each layer's public call timed on its own, with the
// parameters the workloads use (wire latency, arity, working-set size).
// Every row reports ns per call, sim events per call and allocations per
// call.
//
// Rows nest (an RPC round trip includes two link hops, which include event
// dispatch).  For the coverage figure each nested row is reduced to its
// exclusive cost: its ns minus the ns of the rows inside it, times how
// often the row makes them happen.  The exclusive costs are keyed by the
// names RunReport::ladder_use refers to.
#pragma once
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace pb {

struct LadderRow {
  std::string name;  ///< metric name of the ns figure, e.g. "net.link_ns"
  std::string key;   ///< short row name, e.g. "net.link"
  double ns = 0;      ///< ns per call, fastest block
  double events = 0;  ///< sim events per call
  double allocs = 0;  ///< allocations per call, after warm-up
};

struct Ladder {
  std::vector<LadderRow> rows;
  /// Exclusive ns per call, by ladder_use key.
  Metrics exclusive;
};

/// Runs every row; `budget_s` is the wall time to spread over them.
Ladder run_ladder(double budget_s, Scale scale);

/// Share of `wall_ns_per_op` that the ladder's exclusive costs times the
/// workload's per-operation counts account for.
double ladder_coverage(const Ladder& ladder, const Metrics& use,
                       double wall_ns_per_op);

}  // namespace pb
