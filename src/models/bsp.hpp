// Bulk-Synchronous Parallel machine (Valiant 1990; paper Section 6.3).
//
// A computation is a sequence of supersteps. In each superstep every
// processor computes on local data and exchanges messages; with h the
// maximum number of messages any processor sends or receives, the superstep
// costs   max_p(work_p) + g_bsp * h + l_barrier.
// Messages become visible only in the NEXT superstep — one of the paper's
// criticisms (LogP lets a message be used the moment it arrives).
//
// This is an executable machine, not just a formula: programs really move
// word payloads between processors, so BSP algorithms can be validated for
// correctness and costed under BSP accounting, then compared with the same
// algorithm on the LogP simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/params.hpp"

namespace logp::models {

class BspMachine {
 public:
  struct Msg {
    ProcId src = -1;
    ProcId dst = -1;
    std::int32_t tag = 0;
    std::uint64_t word = 0;
  };

  /// Superstep body for one processor: consume `inbox` (messages sent to it
  /// in the previous superstep), append messages to `sends`, and return the
  /// local computation cost in cycles.
  using Step =
      std::function<Cycles(ProcId p, const std::vector<Msg>& inbox,
                           std::vector<Msg>& sends)>;

  BspMachine(int P, Cycles g_bsp, Cycles l_barrier);

  /// Runs one superstep on all processors; returns its cost.
  Cycles superstep(const Step& step);

  Cycles time() const { return time_; }
  int P() const { return P_; }
  std::int64_t supersteps() const { return steps_; }
  /// Largest h-relation routed so far (max over supersteps).
  std::int64_t max_h() const { return max_h_; }

 private:
  int P_;
  Cycles g_;
  Cycles l_;
  Cycles time_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t max_h_ = 0;
  std::vector<std::vector<Msg>> inboxes_;
};

/// Analytic BSP costs for the comparison table.
struct BspModel {
  int P = 1;
  Cycles g = 1;  ///< per-message routing cost in an h-relation
  Cycles l = 1;  ///< barrier cost

  Cycles broadcast_tree() const {
    Cycles t = 0;
    for (int have = 1; have < P; have *= 2) t += 1 + g + l;
    return t;
  }
  Cycles sum(std::int64_t n) const {
    const std::int64_t per = (n + P - 1) / P;
    Cycles t = per - 1;
    for (int have = P; have > 1; have = (have + 1) / 2) t += 1 + g + l;
    return t;
  }
  Cycles fft(std::int64_t n) const {
    Cycles lg = 0;
    while ((std::int64_t{1} << lg) < n) ++lg;
    // Two local phases plus one all-to-all superstep with h = n/P - n/P^2.
    const std::int64_t h = n / P - n / (static_cast<std::int64_t>(P) * P);
    return (n / P) * lg + g * h + 2 * l;
  }
};

}  // namespace logp::models
