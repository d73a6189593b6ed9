#include "models/bsp.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace logp::models {

BspMachine::BspMachine(int P, Cycles g_bsp, Cycles l_barrier)
    : P_(P), g_(g_bsp), l_(l_barrier),
      inboxes_(static_cast<std::size_t>(P)) {
  LOGP_CHECK(P >= 1 && g_bsp >= 0 && l_barrier >= 0);
}

Cycles BspMachine::superstep(const Step& step) {
  std::vector<std::vector<Msg>> next(static_cast<std::size_t>(P_));
  std::vector<std::int64_t> sent(static_cast<std::size_t>(P_), 0);
  std::vector<std::int64_t> received(static_cast<std::size_t>(P_), 0);

  Cycles max_work = 0;
  std::vector<Msg> sends;
  for (ProcId p = 0; p < P_; ++p) {
    sends.clear();
    const Cycles work = step(p, inboxes_[static_cast<std::size_t>(p)], sends);
    LOGP_CHECK(work >= 0);
    max_work = std::max(max_work, work);
    sent[static_cast<std::size_t>(p)] =
        static_cast<std::int64_t>(sends.size());
    for (Msg m : sends) {
      LOGP_CHECK_MSG(m.dst >= 0 && m.dst < P_, "BSP message to bad proc");
      m.src = p;
      ++received[static_cast<std::size_t>(m.dst)];
      next[static_cast<std::size_t>(m.dst)].push_back(m);
    }
  }

  std::int64_t h = 0;
  for (ProcId p = 0; p < P_; ++p)
    h = std::max({h, sent[static_cast<std::size_t>(p)],
                  received[static_cast<std::size_t>(p)]});
  max_h_ = std::max(max_h_, h);

  inboxes_ = std::move(next);
  const Cycles cost = max_work + g_ * h + l_;
  time_ += cost;
  ++steps_;
  return cost;
}

}  // namespace logp::models
