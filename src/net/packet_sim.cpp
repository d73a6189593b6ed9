#include "net/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/event_heap.hpp"
#include "util/simd.hpp"

namespace logp::net {

namespace {

// The engine below is a serial windowed batch design: time advances in
// aligned windows of width `service` (= lookahead), every pending event of a window is gathered into
// one dense buffer, sorted once by a packed (time, injection-id) key, and
// processed in batch — same-link events are grouped so channel arbitration
// amortizes its min-scan (SIMD first-minimum over the channel span), and
// delivery classification runs over 64-event blocks via a SIMD sign-mask of
// the link column. Nothing is heap-allocated per packet: windows live in a
// 64-slot time wheel of reusable vectors (far-future events overflow into a
// small spill heap), routes are arena-backed link-id spans shared by every
// packet on a (src, dst) pair, and links live in an open-addressing table.
//
// Event order is canonical: every event is keyed (time, injection id),
// where the injection id is the packet's index in the (born, src)-sorted
// injection array. A packet has at most one pending event, so this is a
// total order, and — unlike a global pop-sequence counter — it is
// independent of how a kernel batches the events of a window. The
// per-window sort realizes exactly this order; per-link event subsequences
// (the only place state is shared) are therefore identical whichever kernel
// processes a window, which is what keeps SIMD-on and SIMD-off runs
// byte-identical (pinned goldens in tests/test_packet_sim.cpp).

constexpr Cycles kNever = std::numeric_limits<Cycles>::max();
constexpr std::int64_t kNoWindow = std::numeric_limits<std::int64_t>::max();

/// One pre-generated injection. Injections are sorted by (born, src) after
/// generation — a canonical order, since endpoint streams are generated in
/// src order with strictly increasing times, so a timestamp tie can only
/// involve distinct sources. The sorted index IS the packet's injection id.
struct Injection {
  Cycles born;
  std::int32_t src;
  std::int32_t dst;
};

/// In-window event, 16 bytes. `key` packs ((t - window_base) << 32) | inj:
/// sorting a window's buffer by this one u64 IS the canonical (t, inj)
/// order (a packet has at most one pending event, so keys are unique).
/// `link` is the pre-resolved next link id, or -1 when the packet is at its
/// destination — the SIMD classification pass reads only this sign bit.
struct WEvent {
  std::uint64_t key;
  std::int32_t link;
  std::uint16_t hop;      ///< hop index of `link` within the route
  std::uint16_t attempt;  ///< fault-plan retransmission count
};

/// Out-of-window event: frame-wheel and spill-heap entry.
struct PEvent {
  Cycles t;
  std::int32_t inj;
  std::int32_t link;
  std::uint16_t hop;
  std::uint16_t attempt;
};

/// Spill entries are re-keyed and sorted when their window opens, so the
/// heap only needs to order by time; ties drain in arbitrary order.
struct SpillBefore {
  bool operator()(const PEvent& a, const PEvent& b) const { return a.t < b.t; }
};

/// What happened to a packet at a recorded instant. Fault-free runs only
/// ever record kDelivered; an active FaultPlan adds terminal losses and
/// retransmission marks, which the canonical replay needs to reproduce the
/// in-flight walk and cumulative retransmit series.
enum class DKind : std::uint8_t { kDelivered, kLost, kRetry };

/// A packet outcome record, written by the kernel that processed the event.
/// The list is (t, inj)-sorted by construction — windows advance
/// monotonically and each window records in (t, inj) order — so the
/// reduction pass walks it without sorting.
struct Delivery {
  Cycles t;
  std::int32_t inj;
  DKind kind;
};

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t pair_key(int u, int v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

/// Open-addressing (u, v) -> dense id map: one flat probe instead of an
/// unordered_map node walk, and no per-insert allocation once warmed up.
class PairIndex {
 public:
  PairIndex() { rehash(1024); }

  /// Returns (id, fresh). Ids are dense and assigned in first-touch order.
  std::pair<std::int32_t, bool> find_or_add(std::uint64_t key) {
    if ((count_ + 1) * 10 >= keys_.size() * 7) rehash(keys_.size() * 2);
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask_;
    while (keys_[i] != kEmpty) {
      if (keys_[i] == key) return {ids_[i], false};
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    ids_[i] = static_cast<std::int32_t>(count_++);
    return {ids_[i], true};
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::int32_t> old_ids = std::move(ids_);
    keys_.assign(cap, kEmpty);
    ids_.assign(cap, 0);
    mask_ = cap - 1;
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      std::size_t i = static_cast<std::size_t>(mix64(old_keys[j])) & mask_;
      while (keys_[i] != kEmpty) i = (i + 1) & mask_;
      keys_[i] = old_keys[j];
      ids_[i] = old_ids[j];
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::int32_t> ids_;
  std::size_t mask_ = 0;
  std::size_t count_ = 0;
};

/// Directed links: dense per-link channel spans in one shared buffer,
/// discovered when a route first touches them. channel[i] holds the cycle
/// at which channel i frees. All links are resolved in the pre-pass, so the
/// table is structurally immutable while the engine runs — only channel
/// cells change.
class LinkTable {
 public:
  std::int32_t resolve(const Topology& topo, int u, int v) {
    const auto [id, fresh] = index_.find_or_add(pair_key(u, v));
    if (fresh) {
      chan_off_.push_back(static_cast<std::int32_t>(channels_.size()));
      const int mult = topo.link_multiplicity(u, v);
      chan_cnt_.push_back(mult);
      channels_.insert(channels_.end(), static_cast<std::size_t>(mult), 0);
      uv_.emplace_back(u, v);
    }
    return id;
  }

  std::size_t count() const { return uv_.size(); }
  std::pair<int, int> endpoints(std::int32_t id) const {
    return uv_[static_cast<std::size_t>(id)];
  }
  int channels(std::int32_t id) const {
    return chan_cnt_[static_cast<std::size_t>(id)];
  }
  std::int32_t channel_offset(std::int32_t id) const {
    return chan_off_[static_cast<std::size_t>(id)];
  }
  Cycles* channel_data() { return channels_.data(); }

  /// Earliest-free channel of a resolved link. The first-minimum tie-break
  /// (equal-cycle channels resolve to the lowest index, as std::min_element
  /// would) is part of the pinned trajectory (tests/test_simd.cpp).
  Cycles& earliest(std::int32_t id) {
    const auto off =
        static_cast<std::size_t>(chan_off_[static_cast<std::size_t>(id)]);
    const auto cnt =
        static_cast<std::size_t>(chan_cnt_[static_cast<std::size_t>(id)]);
    Cycles* span = channels_.data() + off;
    return span[cnt == 1 ? 0 : util::simd::first_min_index_i64(span, cnt)];
  }

 private:
  PairIndex index_;
  std::vector<std::int32_t> chan_off_;
  std::vector<std::int32_t> chan_cnt_;
  std::vector<Cycles> channels_;
  std::vector<std::pair<int, int>> uv_;  ///< id -> (u, v), telemetry only
};

/// Route memo: every packet between the same endpoints follows the same
/// deterministic route, so the route is walked once per (src, dst) pair and
/// stored as the span of dense link ids it traverses (an arena allocation,
/// shared read-only by all packets on the pair).
class RouteCache {
 public:
  explicit RouteCache(const Topology& topo, LinkTable& links)
      : topo_(topo), links_(links) {}

  /// Link-id sequence for src -> dst; hops = number of links.
  void get(int src, int dst, const std::int32_t*& route, std::int32_t& hops) {
    const auto [id, fresh] = index_.find_or_add(pair_key(src, dst));
    if (fresh) {
      walk(src, dst);
      auto* span = arena_.allocate<std::int32_t>(scratch_.size());
      std::copy(scratch_.begin(), scratch_.end(), span);
      routes_.push_back(span);
      hops_.push_back(static_cast<std::int32_t>(scratch_.size()));
    }
    route = routes_[static_cast<std::size_t>(id)];
    hops = hops_[static_cast<std::size_t>(id)];
  }

 private:
  /// Same walk as Topology::route, emitting link ids into scratch.
  void walk(int src, int dst) {
    scratch_.clear();
    int cur = topo_.endpoint_node(src);
    const int goal = topo_.endpoint_node(dst);
    int guard = 4 * topo_.num_nodes() + 64;
    while (cur != goal) {
      LOGP_CHECK_MSG(--guard > 0, "routing loop in " << topo_.name());
      const int next = topo_.next_hop(cur, dst);
      scratch_.push_back(links_.resolve(topo_, cur, next));
      cur = next;
    }
  }

  const Topology& topo_;
  LinkTable& links_;
  PairIndex index_;
  util::Arena arena_;
  std::vector<const std::int32_t*> routes_;
  std::vector<std::int32_t> hops_;
  std::vector<std::int32_t> scratch_;
};

/// Per-injection route handle, one 16-byte load on the hot path: the link
/// span, its length, and the pre-extracted first link (-1 when src == dst
/// maps to a zero-hop route).
struct RouteRef {
  const std::int32_t* span;
  std::int32_t hops;
  std::int32_t first;
};

/// Epoch-stamped route variants for fault-aware rerouting
/// (PacketSimConfig::reroute). The fault plan's link kill intervals
/// partition time into epochs; every (src, dst) pair that carries traffic
/// gets one route per epoch, all computed in the serial pre-pass:
///
///  * the base deterministic route when no link on it is dead in the epoch
///    (the common case — it shares the base span, so healthy epochs cost
///    nothing), or
///  * a BFS shortest detour over the edges the routing function can emit,
///    avoiding every link dead in the epoch (ascending-neighbor first-visit
///    makes the detour canonical), or
///  * the base route again when the outage cuts the destination off — the
///    packet then drops and retries exactly as without rerouting.
///
/// Consecutive epochs with identical link sequences share one span, so
/// "the route changed" is a pointer comparison — the test both the engine's
/// retry recommit and the canonical replay make, which keeps the reroute
/// count byte-identical at every SIMD setting. Everything is resolved
/// before the engine starts; detour links enter the link table in a
/// deterministic first-touch order.
class EpochRouter {
 public:
  EpochRouter(const Topology& topo, const fault::FaultPlan& fp,
              LinkTable& links)
      : topo_(topo), fp_(&fp), links_(links) {
    for (const fault::LinkFault& lf : fp.link_faults) {
      if (lf.degrade != 0 || lf.to <= lf.from) continue;
      bounds_.push_back(lf.from);
      bounds_.push_back(lf.to);
      kill_pairs_.push_back(pair_key(lf.u, lf.v));
    }
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
    std::sort(kill_pairs_.begin(), kill_pairs_.end());
    kill_pairs_.erase(std::unique(kill_pairs_.begin(), kill_pairs_.end()),
                      kill_pairs_.end());
    // Adjacency = every edge the deterministic routing function can emit,
    // discovered by enumerating next_hop over node x endpoint.
    const int N = topo.num_nodes();
    adj_.resize(static_cast<std::size_t>(N));
    for (int u = 0; u < N; ++u) {
      std::vector<int>& nb = adj_[static_cast<std::size_t>(u)];
      for (int d = 0; d < topo.num_endpoints(); ++d)
        if (topo.endpoint_node(d) != u) nb.push_back(topo.next_hop(u, d));
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
    prev_.assign(static_cast<std::size_t>(N), -1);
  }

  int num_epochs() const { return static_cast<int>(bounds_.size()) + 1; }

  /// Epoch of instant t. Kill intervals are [from, to), so t == from is
  /// already inside the outage and t == to is already healed.
  int epoch_of(Cycles t) const {
    return static_cast<int>(
        std::upper_bound(bounds_.begin(), bounds_.end(), t) - bounds_.begin());
  }

  /// Pre-pass only: dense id of the (src, dst) pair, resolving every epoch
  /// variant on first touch. `base` is the pair's deterministic route.
  std::int32_t pair_id(int src, int dst, const RouteRef& base) {
    const auto [id, fresh] = index_.find_or_add(pair_key(src, dst));
    if (fresh) {
      for (int e = 0; e < num_epochs(); ++e) {
        RouteRef v = variant_route(src, dst, e, base);
        if (e > 0) {
          const RouteRef& p = variants_.back();
          if (v.span != p.span && v.hops == p.hops &&
              std::equal(v.span, v.span + v.hops, p.span))
            v = p;  // identical consecutive variants share one span
        }
        variants_.push_back(v);
      }
    }
    return id;
  }

  const RouteRef& variant(std::int32_t pair, int epoch) const {
    return variants_[static_cast<std::size_t>(pair) *
                         static_cast<std::size_t>(num_epochs()) +
                     static_cast<std::size_t>(epoch)];
  }

  /// Links inside a kill interval at instant t — a pure function of the
  /// plan, sampled into the dead-link telemetry series.
  std::int64_t dead_links_at(Cycles t) const {
    std::int64_t n = 0;
    for (const std::uint64_t k : kill_pairs_) {
      const int u = static_cast<int>(k >> 32);
      const int v = static_cast<int>(static_cast<std::uint32_t>(k));
      if (fp_->link_degrade(u, v, t) == 0) ++n;
    }
    return n;
  }

 private:
  bool dead_in_epoch(int u, int v, int e) const {
    // Link state is constant within an epoch, so the epoch's first instant
    // represents it. (Epoch 0 is empty when a kill starts at cycle 0; its
    // variants are computed but never dispatched.)
    const Cycles rep = e == 0 ? 0 : bounds_[static_cast<std::size_t>(e) - 1];
    return fp_->link_degrade(u, v, rep) == 0;
  }

  RouteRef variant_route(int src, int dst, int e, const RouteRef& base) {
    bool clean = true;
    for (std::int32_t h = 0; h < base.hops && clean; ++h) {
      const auto [u, v] = links_.endpoints(base.span[h]);
      clean = !dead_in_epoch(u, v, e);
    }
    if (clean) return base;
    const int start = topo_.endpoint_node(src);
    const int goal = topo_.endpoint_node(dst);
    std::fill(prev_.begin(), prev_.end(), -1);
    prev_[static_cast<std::size_t>(start)] = start;
    queue_.clear();
    queue_.push_back(start);
    for (std::size_t qh = 0; qh < queue_.size(); ++qh) {
      const int u = queue_[qh];
      if (u == goal) break;
      for (const int v : adj_[static_cast<std::size_t>(u)]) {
        if (prev_[static_cast<std::size_t>(v)] != -1) continue;
        if (dead_in_epoch(u, v, e)) continue;
        prev_[static_cast<std::size_t>(v)] = u;
        queue_.push_back(v);
      }
    }
    if (prev_[static_cast<std::size_t>(goal)] == -1) return base;  // cut off
    scratch_.clear();
    for (int cur = goal; cur != start;
         cur = prev_[static_cast<std::size_t>(cur)])
      scratch_.push_back(cur);
    std::reverse(scratch_.begin(), scratch_.end());
    auto* span = arena_.allocate<std::int32_t>(scratch_.size());
    int cur = start;
    for (std::size_t h = 0; h < scratch_.size(); ++h) {
      span[h] = links_.resolve(topo_, cur, scratch_[h]);
      cur = scratch_[h];
    }
    const auto hops = static_cast<std::int32_t>(scratch_.size());
    LOGP_CHECK_MSG(hops < 65536, "detour longer than the packed hop counter");
    return RouteRef{span, hops, span[0]};
  }

  const Topology& topo_;
  const fault::FaultPlan* fp_;
  LinkTable& links_;
  std::vector<Cycles> bounds_;  ///< sorted unique kill interval edges
  std::vector<std::uint64_t> kill_pairs_;  ///< unique (u, v) named by kills
  std::vector<std::vector<int>> adj_;
  PairIndex index_;
  util::Arena arena_;
  std::vector<RouteRef> variants_;  ///< pair-major, num_epochs() per pair
  std::vector<int> prev_;  ///< BFS parent (-1 = unvisited) scratch
  std::vector<int> queue_;
  std::vector<int> scratch_;
};

int pick_destination(const PacketSimConfig& cfg, int src, int P,
                     util::Xoshiro256StarStar& rng) {
  switch (cfg.pattern) {
    case TrafficPattern::kUniform:
      break;
    case TrafficPattern::kTranspose: {
      // Interpret ids as (row, col) on the nearest square grid.
      int side = 1;
      while (side * side < P) ++side;
      if (side * side == P) {
        const int d = (src % side) * side + src / side;
        return d == src ? (src + 1) % P : d;
      }
      break;  // non-square: fall back to uniform
    }
    case TrafficPattern::kBitReverse: {
      if ((P & (P - 1)) == 0) {
        int bits = 0;
        while ((1 << bits) < P) ++bits;
        int d = 0;
        for (int b = 0; b < bits; ++b)
          if (src & (1 << b)) d |= 1 << (bits - 1 - b);
        return d == src ? (src + 1) % P : d;
      }
      break;
    }
    case TrafficPattern::kNeighbor:
      return (src + 1) % P;
    case TrafficPattern::kHotspot:
      if (src != 0 && rng.uniform01() < cfg.hotspot_fraction) return 0;
      break;
  }
  int dst = static_cast<int>(rng.uniform(static_cast<std::uint64_t>(P - 1)));
  if (dst >= src) ++dst;
  return dst;
}

/// Everything the engine consumes, produced once by the pre-pass: the
/// sorted injection array with per-injection route refs, and the fully
/// resolved link table.
struct SimContext {
  const Topology& topo;
  const PacketSimConfig& cfg;
  LinkTable& links;
  std::vector<Injection>& injections;
  std::vector<RouteRef>& refs;  ///< per injection id
  std::size_t dispatchable;     ///< injections with born <= drain_limit
  Cycles service;
  std::size_t reserve;
  /// Non-null only when the config carries a plan with active packet-level
  /// faults — so a null pointer IS the fault-free, verdict-free path.
  const fault::FaultPlan* faults;
  /// Non-null only when cfg.reroute engaged (plan has kill intervals):
  /// epoch-stamped route variants plus the injection -> pair-id map.
  const EpochRouter* router;
  const std::int32_t* inj_pair;
};

void accumulate_link(obs::LinkTelemetry& lt, Cycles service, Cycles wait) {
  ++lt.packets;
  lt.busy += service;
  lt.queue_wait += wait;
  lt.max_queue_wait = std::max(lt.max_queue_wait, wait);
  // No explicit queue structure exists (packets wait inside the time
  // wheel), so backlog is derived: a wait of k service times means k
  // packets were scheduled ahead on this link's channels.
  lt.max_backlog =
      std::max<std::int64_t>(lt.max_backlog, (wait + service - 1) / service);
}

void fill_link_telemetry(obs::NetTelemetry* telem, const LinkTable& links,
                         const std::vector<obs::LinkTelemetry>& acc) {
  for (std::size_t id = 0; id < links.count(); ++id) {
    obs::LinkTelemetry lt = id < acc.size() ? acc[id] : obs::LinkTelemetry{};
    const auto [u, v] = links.endpoints(static_cast<std::int32_t>(id));
    lt.u = u;
    lt.v = v;
    lt.channels = links.channels(static_cast<std::int32_t>(id));
    telem->links.push_back(lt);
  }
}

/// Exact unsigned division by the (invariant) window width, avoiding a
/// 64-bit idiv per event push: q = floor(n * ceil(2^64/d) / 2^64) is exact
/// for every n < 2^32, and event times at or above 2^32 cycles take the
/// cold real-division branch.
struct WindowDiv {
  std::uint64_t mul = 0;
  Cycles d = 1;

  void init(Cycles dd) {
    d = dd;
    mul = dd > 1 ? ~std::uint64_t{0} / static_cast<std::uint64_t>(dd) + 1 : 0;
  }
  std::int64_t operator()(Cycles t) const {
    if (d == 1) return t;
    if (t < (Cycles{1} << 32)) [[likely]]
      return static_cast<std::int64_t>(
          (static_cast<unsigned __int128>(static_cast<std::uint64_t>(t)) *
           mul) >>
          64);
    return t / d;
  }
};

constexpr int kWheelBits = 6;
constexpr int kWheel = 1 << kWheelBits;  ///< 64 windows resident at once

/// The windowed batch engine.
///
/// Correctness argument:
///
///  * Lookahead. Every event processed at time t schedules its successor at
///    start + service >= t + service, so with aligned windows of width
///    service an event inside window w only creates events in windows
///    >= w + 1: a window's population is fully known when it opens, and the
///    wheel's current bucket is never pushed to mid-window.
///  * Canonical order. Each window buffer is sorted into (t, inj) order
///    before processing, so each link's channel state sees exactly the
///    canonical event subsequence for that link — identical contention,
///    start times and successor times however a kernel batches the window,
///    with or without SIMD.
///
/// Statistics are NOT accumulated during window execution. The kernels
/// record only per-packet outcome records; the reduction replays them
/// against the injection array in canonical order, reproducing a strictly
/// event-by-event accumulation bit-for-bit.
class Engine {
 public:
  explicit Engine(const SimContext& sc)
      : sc_(sc),
        fp_(sc.faults),
        ordered_(sc.faults != nullptr && util::simd::force_scalar()),
        service_(sc.service),
        csort_(sc.service <= 1024),
        drain_(sc.cfg.drain_limit),
        telem_(sc.cfg.telemetry) {
    wdiv_.init(service_);
    // Radix plan for large windows: sort by the packed (dt, inj) order via
    // stable 8-bit LSD passes over inj, the last pass folding the leftover
    // inj bits together with dt (dt < service, inj < #injections, so the
    // digit count is known up front). Only planned when the final histogram
    // stays small; other configurations keep the counting+introsort path.
    if (csort_) {
      const std::size_t ninj = sc_.injections.size();
      int ib = 1;
      while (ninj > 1 && ((ninj - 1) >> ib) != 0) ++ib;
      int db = 0;
      while (((service_ - 1) >> db) != 0) ++db;
      const int np = ib <= 8 ? 1 : (ib <= 16 ? 2 : 3);
      const int rem = ib - (np - 1) * 8;
      if (ib <= 24 && rem + db <= 12) {
        radix_passes_ = np;
        radix_rem_ = rem;
        radix_done_ = (np - 1) * 8;
        radix_hist_ = std::size_t{1} << (rem + db);
      }
    }
    const auto links = sc_.links.count();
    const std::size_t reserve = sc_.reserve + 16;
    // One lookahead is one hop, so in steady state nearly every successor
    // lands in the very next window: a single bucket can hold close to the
    // whole in-flight population. Size each bucket for that (capped — a
    // saturated or huge-P run may regrow, which is allowed).
    const std::size_t per_bucket = std::min<std::size_t>(8192, reserve);
    spill_.reserve(reserve);
    chain_next_.reserve(2 * reserve);
    touched_.reserve(64);
    mask_words_.reserve(reserve / 32 + 2);
    if (fp_ != nullptr) {
      verdict_words_.reserve(reserve / 32 + 2);
      stage_inj_.reserve(per_bucket);
      stage_att_.reserve(per_bucket);
      if (!fp_->link_faults.empty()) stage_deg_.reserve(per_bucket);
      vscratch_.salt.reserve(per_bucket);
      vscratch_.a.reserve(per_bucket);
      vscratch_.b.reserve(per_bucket);
      vscratch_.hash.reserve(per_bucket);
    }
    if (csort_) {
      sorted_.reserve(per_bucket);
      dt_pos_.assign(static_cast<std::size_t>(service_) + 1, 0);
      if (radix_passes_ != 0) {
        sorted2_.reserve(per_bucket);
        hist_last_.assign(radix_hist_, 0);
      }
    }
    link_mark_.assign(links, 0);
    link_tail_.assign(links, 0);
    for (auto& b : bucket_) b.reserve(per_bucket);
    // Frame buckets are left unreserved: their population is bound by the
    // backlog (load-bound, not duration-bound), so lazy doubling settles
    // within the warmup windows and the steady state stays allocation-
    // free — while an eager 64-vector reserve would charge every light
    // run for capacity only saturated runs use.
    if (telem_) link_acc_.resize(links);
    // Reserved exactly once (the steady state is allocation-free, see the
    // test): one delivery per dispatched injection plus retry headroom.
    deliveries_.reserve(sc_.dispatchable + sc_.dispatchable / 8 + 16);
  }

  void run(PacketSimResult& result) {
    if (telem_) telem_->clear();
    std::int64_t w = sc_.dispatchable > 0 ? wdiv_(sc_.injections[0].born)
                                          : kNoWindow;
    while (w != kNoWindow && w * service_ <= drain_) {
      cur_w_ = w;
      w = process_window(w);
    }
    // Pending work past the drain limit — wheel/spill events, never-
    // dispatched injections, or events discarded by the in-window drain
    // cutoff — is exactly the saturation predicate.
    result.saturated =
        w != kNoWindow || sc_.dispatchable < sc_.injections.size() || trunc_;
    reduce(result);
    flush_introspection();
  }

 private:
  /// Cold: publishes the engine-introspection totals once, after the run.
  void flush_introspection() {
    obs::MetricsRegistry* m = sc_.cfg.metrics;
    if (m == nullptr) return;
    m->counter("net.wheel.pushes")->add(wheel_pushes_);
    m->gauge("net.wheel.peak_bucket")->set(wheel_peak_);
    m->counter("net.wheel.l2_pushes")->add(l2_pushes_);
    m->counter("net.heap.spills")->add(heap_spills_);
    m->counter("net.kernel.simd_windows")->add(simd_windows_);
    m->counter("net.kernel.faulted_simd_windows")->add(faulted_simd_windows_);
    m->counter("net.kernel.scalar_windows")->add(scalar_windows_);
    m->counter("net.sort.counting_windows")->add(csort_windows_);
    m->counter("net.sort.radix_windows")->add(radix_windows_);
    m->counter("net.sort.fallbacks")->add(sort_fallbacks_);
  }

  static std::uint64_t pack_key(Cycles dt, std::int32_t inj) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dt))
            << 32) |
           static_cast<std::uint32_t>(inj);
  }

  /// Schedule a successor (or retry) event: first wheel, frame wheel or
  /// spill heap by distance. `link < 0` means the packet is at its
  /// destination.
  void push_event(Cycles t, std::int32_t inj, std::int32_t link,
                  std::uint16_t hop, std::uint16_t attempt) {
    const std::int64_t wt = wdiv_(t);
    if (wt - cur_w_ >= kWheel) {
      // Past the first wheel: stage in the frame wheel if within its
      // horizon (64 frames = 4096 windows), else the spill heap. Frame
      // buckets are unsorted — sort_window launders any arrival order.
      const std::int64_t g = wt >> kWheelBits;
      if (g - (cur_w_ >> kWheelBits) >= kWheel) {
        ++heap_spills_;
        spill_.push({t, inj, link, hop, attempt});
        return;
      }
      ++l2_pushes_;
      frame_[g & (kWheel - 1)].push_back({t, inj, link, hop, attempt});
      frame_nonempty_ |= std::uint64_t{1} << (g & (kWheel - 1));
      return;
    }
    std::vector<WEvent>& b = bucket_[wt & (kWheel - 1)];
    b.push_back({pack_key(t - wt * service_, inj), link, hop, attempt});
    ++wheel_pushes_;
    wheel_peak_ = std::max(wheel_peak_, static_cast<std::int64_t>(b.size()));
    nonempty_ |= std::uint64_t{1} << (wt & (kWheel - 1));
  }

  /// Sort the window buffer into canonical (dt, inj) key order and return a
  /// pointer to the sorted events. dt spans only [0, service), so a
  /// counting scatter by dt plus a tiny insertion sort of each equal-dt run
  /// (typical run length: a handful) replaces the comparison sort on the
  /// hot path; very large service values fall back to std::sort.
  const WEvent* sort_window(std::vector<WEvent>& buf, std::size_t n) {
    if (!csort_) {
      ++sort_fallbacks_;
      std::sort(buf.begin(), buf.end(),
                [](const WEvent& a, const WEvent& b) { return a.key < b.key; });
      return buf.data();
    }
    ++csort_windows_;
    // Large windows: equal-dt runs grow to ~n/service events and any
    // comparison sort of them is branch-mispredict-bound (measured ~28% of
    // faulted run time). The stable LSD radix over the same key order is
    // branchless and wins from a couple hundred events; below that the
    // per-pass histogram overhead dominates and counting + insertion keeps
    // the small-window latency.
    constexpr std::size_t kRadixMin = 192;
    if (radix_passes_ != 0 && n >= kRadixMin) return sort_radix(buf, n);
    std::uint32_t* const pos = dt_pos_.data();
    std::fill(pos, pos + service_ + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++pos[(buf[i].key >> 32) + 1];
    for (std::size_t d = 1; d <= static_cast<std::size_t>(service_); ++d)
      pos[d] += pos[d - 1];
    sorted_.resize(n);
    WEvent* const out = sorted_.data();
    for (std::size_t i = 0; i < n; ++i)
      out[pos[buf[i].key >> 32]++] = buf[i];
    // pos[d] now holds the END of group d. Order each equal-dt run by full
    // key (dts are equal within a run, so this sorts by injection id).
    // Light traffic gives runs of a handful of events where insertion sort
    // is unbeatable; near saturation runs grow to ~n/service events and its
    // quadratic cost dominates the whole window (measured ~28% of faulted
    // run time), so long runs take introsort instead.
    constexpr std::size_t kInsertionMax = 16;
    std::size_t lo = 0;
    for (std::size_t d = 0; d <= static_cast<std::size_t>(service_) - 1;
         ++d) {
      const std::size_t hi = pos[d];
      if (hi - lo > kInsertionMax) {
        std::sort(out + lo, out + hi,
                  [](const WEvent& a, const WEvent& b) { return a.key < b.key; });
      } else {
        for (std::size_t i = lo + 1; i < hi; ++i) {
          const WEvent e = out[i];
          std::size_t j = i;
          for (; j > lo && out[j - 1].key > e.key; --j) out[j] = out[j - 1];
          out[j] = e;
        }
      }
      lo = hi;
    }
    return out;
  }

  /// Stable LSD radix sort into canonical (dt, inj) order: 8-bit counting
  /// passes over the low inj bits, then one pass over the remaining inj
  /// bits concatenated with dt (the composite digit preserves the packed
  /// key's lexicographic order). All histograms are filled in a single
  /// fused pass; scatters ping-pong between the two sort buffers, arranged
  /// so the final pass always lands in sorted_.
  const WEvent* sort_radix(std::vector<WEvent>& buf, std::size_t n) {
    ++radix_windows_;
    sorted_.resize(n);
    sorted2_.resize(n);
    const int np = radix_passes_;
    const int rem = radix_rem_;
    const int dlast = radix_done_;
    std::uint32_t h0[256], h1[256];
    std::uint32_t* const hl = hist_last_.data();
    if (np > 1) std::fill(h0, h0 + 256, 0);
    if (np > 2) std::fill(h1, h1 + 256, 0);
    std::fill(hl, hl + radix_hist_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = buf[i].key;
      if (np > 1) ++h0[k & 255];
      if (np > 2) ++h1[(k >> 8) & 255];
      ++hl[((k >> 32) << rem) | (static_cast<std::uint32_t>(k) >> dlast)];
    }
    std::uint32_t s = 0;
    if (np > 1)
      for (int d = 0; d < 256; ++d) {
        const std::uint32_t c = h0[d];
        h0[d] = s;
        s += c;
      }
    s = 0;
    if (np > 2)
      for (int d = 0; d < 256; ++d) {
        const std::uint32_t c = h1[d];
        h1[d] = s;
        s += c;
      }
    s = 0;
    for (std::size_t d = 0; d < radix_hist_; ++d) {
      const std::uint32_t c = hl[d];
      hl[d] = s;
      s += c;
    }
    WEvent* const A = sorted_.data();
    WEvent* const B = sorted2_.data();
    const WEvent* src = buf.data();
    WEvent* dst = (np % 2 == 1) ? A : B;
    if (np > 1) {
      for (std::size_t i = 0; i < n; ++i) dst[h0[src[i].key & 255]++] = src[i];
      src = dst;
      dst = dst == A ? B : A;
    }
    if (np > 2) {
      for (std::size_t i = 0; i < n; ++i)
        dst[h1[(src[i].key >> 8) & 255]++] = src[i];
      src = dst;
      dst = dst == A ? B : A;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src[i].key;
      dst[hl[((k >> 32) << rem) | (static_cast<std::uint32_t>(k) >> dlast)]++] =
          src[i];
    }
    return A;
  }

  /// Processes window w and returns the earliest pending window after it
  /// (kNoWindow when nothing is left).
  std::int64_t process_window(std::int64_t w) {
    const Cycles wbase = w * service_;
    const Cycles wend = wbase + service_;
    std::vector<WEvent>& buf = bucket_[w & (kWheel - 1)];
    // Frame-wheel drain: every event in a frame <= the current one is now
    // within one first-wheel turn of w (an in-range frame g <= w >> 6 only
    // holds events with w <= t/service < (g + 1) * 64, since the window scan
    // below offers each pending frame's start as a candidate — the engine never
    // jumps past an undrained frame). Live bits always name frames in
    // (cur_frame, cur_frame + 64], so the modular decode below is exact.
    const std::int64_t f = w >> kWheelBits;
    if (f != cur_frame_) {
      for (std::uint64_t m = frame_nonempty_; m != 0; m &= m - 1) {
        const int b = __builtin_ctzll(m);
        const std::int64_t g =
            cur_frame_ + 1 + ((b - cur_frame_ - 1) & (kWheel - 1));
        if (g > f) continue;
        std::vector<PEvent>& fb = frame_[b];
        for (const PEvent& e : fb)
          push_event(e.t, e.inj, e.link, e.hop, e.attempt);
        fb.clear();
        frame_nonempty_ &= ~(std::uint64_t{1} << b);
      }
      cur_frame_ = f;
    }
    // Spill entries whose window has arrived.
    while (!spill_.empty() && spill_.top().t < wend) {
      PEvent e;
      spill_.pop_into(e);
      buf.push_back({pack_key(e.t - wbase, e.inj), e.link, e.hop, e.attempt});
    }
    // Injections born in this window (drain-limit suffix already trimmed).
    for (; next_inj_ < sc_.dispatchable; ++next_inj_) {
      const Cycles born = sc_.injections[next_inj_].born;
      if (born >= wend) break;
      buf.push_back(
          {pack_key(born - wbase, static_cast<std::int32_t>(next_inj_)),
           sc_.refs[next_inj_].first, 0, 0});
    }
    nonempty_ &= ~(std::uint64_t{1} << (w & (kWheel - 1)));

    std::size_t n = buf.size();
    const WEvent* ev = buf.data();
    if (n > 1) ev = sort_window(buf, n);
    // Drain cutoff: events past the limit are never processed (the run is
    // saturated); the buffer is key-sorted, so they form a suffix.
    if (n > 0 && wend - 1 > drain_) {
      const std::uint64_t lim = pack_key(drain_ - wbase + 1, 0);
      std::size_t keep = n;
      while (keep > 0 && ev[keep - 1].key >= lim) --keep;
      if (keep < n) {
        trunc_ = true;
        n = keep;
      }
    }
    if (n > 0) {
      last_t_ = wbase + static_cast<Cycles>(ev[n - 1].key >> 32);
      if (ordered_)
        window_faulted(wbase, ev, n);
      else
        window_batch(wbase, ev, n);
    }
    buf.clear();
    ++epoch_;

    // Earliest pending window: wheel bits, frames, spill, injection stream.
    // All wheel bits refer to windows in (w, w + 64), so the modular
    // distance is exact.
    std::int64_t nw = kNoWindow;
    for (std::uint64_t m = nonempty_; m != 0; m &= m - 1) {
      const int b = __builtin_ctzll(m);
      const std::int64_t off = (b - w) & (kWheel - 1);
      nw = std::min(nw, w + off);
    }
    // Pending frames offer their frame-start window as a conservative
    // candidate: visiting it costs one (usually empty) window in which the
    // frame drains into the first wheel and the scan above takes over.
    for (std::uint64_t m = frame_nonempty_; m != 0; m &= m - 1) {
      const int b = __builtin_ctzll(m);
      const std::int64_t g = f + 1 + ((b - f - 1) & (kWheel - 1));
      nw = std::min(nw, g << kWheelBits);
    }
    if (!spill_.empty()) nw = std::min(nw, wdiv_(spill_.top().t));
    if (next_inj_ < sc_.dispatchable)
      nw = std::min(nw, wdiv_(sc_.injections[next_inj_].born));
    return nw;
  }

  /// Strictly-ordered faulted kernel: walks the sorted buffer one event at
  /// a time in canonical (t, inj) order. It is the scalar reference the
  /// batch kernel is pinned byte-identical against, selected only by the
  /// test switch util::simd::set_force_scalar (fault-free windows have no
  /// ordered form and stay on the batch kernel).
  void window_faulted(Cycles wbase, const WEvent* ev, std::size_t n) {
    ++scalar_windows_;
    for (std::size_t x = 0; x < n; ++x) {
      const WEvent& e = ev[x];
      const Cycles t = wbase + static_cast<Cycles>(e.key >> 32);
      const auto inj =
          static_cast<std::int32_t>(static_cast<std::uint32_t>(e.key));
      if (e.link < 0) {
        // A corrupted attempt consumed every link it crossed but delivers
        // nothing — the receiver discards it and the plan decides its fate.
        if (fp_->corrupt_attempt(inj, e.attempt)) {
          ++corrupted_;
          retry_or_lose(t, inj, e.attempt, -1);
        } else {
          deliveries_.push_back({t, inj, DKind::kDelivered});
        }
        continue;
      }
      const auto [lu, lv] = sc_.links.endpoints(e.link);
      const int deg = fp_->link_degrade(lu, lv, t);
      const RouteRef& rr = sc_.refs[static_cast<std::size_t>(inj)];
      const bool doomed =
          deg == 0 || (fp_->drop_attempt(inj, e.attempt) &&
                       static_cast<int>(e.hop) ==
                           fp_->drop_hop(inj, e.attempt, rr.hops));
      if (doomed) {
        ++dropped_;
        if (telem_) ++link_acc_[static_cast<std::size_t>(e.link)].drops;
        retry_or_lose(t, inj, e.attempt, e.link);
        continue;
      }
      // A degraded (but live) link serves slower; service only ever grows,
      // so the window lookahead bound is untouched.
      const Cycles svc = service_ * deg;
      Cycles& free_at = sc_.links.earliest(e.link);
      const Cycles start = t > free_at ? t : free_at;
      free_at = start + svc;
      if (telem_)
        accumulate_link(link_acc_[static_cast<std::size_t>(e.link)], svc,
                        start - t);
      const std::int32_t nhop = static_cast<std::int32_t>(e.hop) + 1;
      const std::int32_t nlink = nhop == rr.hops ? -1 : rr.span[nhop];
      push_event(start + svc, inj, nlink,
                 static_cast<std::uint16_t>(nhop), e.attempt);
    }
  }

  /// The window kernel, with or without a fault plan. Two passes over the
  /// sorted buffer:
  ///
  ///  1. Classification and verdicts. A SIMD sign-mask of the link column
  ///     splits each 64-event block into deliveries and link traversals.
  ///     With a plan, a single SplitMix64 batch (FaultPlan::verdict_mask)
  ///     decides corrupt for deliveries and rate-drop for link traversals
  ///     in one sweep; the drop-hop refinement then touches only
  ///     hash-flagged events, and the dead/degraded-link memo only runs
  ///     when the plan has link faults at all. The result per block is a
  ///     terminal mask: events that end in an outcome record this window.
  ///     Without a plan the verdict word is 0, so nothing is terminal.
  ///  2. Records, chains and arbitration. Outcome records (clean
  ///     deliveries, corrupted or dropped attempts) are emitted walking the
  ///     delivery|terminal mask in buffer order, while surviving traversals
  ///     chain per link in buffer order (= canonical order). Each touched
  ///     link then walks its chain with the channel span hot in L1 — the
  ///     SIMD first-minimum scan amortizes over every event on that link in
  ///     the window — with the service span scaled by the link's degrade
  ///     factor.
  ///
  /// Reordering across links is invisible: links are independent resources,
  /// per-link subsequences stay canonical, and all statistics flow through
  /// the canonical replay in reduce(). Byte-identity with window_faulted()
  /// is structural: verdicts are bit-exact (the integer-threshold form of
  /// the same hashes), record order is canonical either way, per-link
  /// arbitration sees the same canonical subsequence, and successor push
  /// order is laundered by sort_window() — pinned across every fault type
  /// and SIMD setting by tests/test_packet_sim.cpp.
  void window_batch(Cycles wbase, const WEvent* ev, std::size_t n) {
    const std::size_t nwords = (n + 63) / 64;
    mask_words_.resize(nwords);
    util::simd::negative_mask_i32_stride(&ev[0].link, n,
                                         sizeof(WEvent) / sizeof(std::int32_t),
                                         mask_words_.data());
    const bool lf = fp_ != nullptr && !fp_->link_faults.empty();
    if (fp_ != nullptr) {
      ++faulted_simd_windows_;
      stage_inj_.resize(n);
      stage_att_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        stage_inj_[i] = static_cast<std::uint32_t>(ev[i].key);
        stage_att_[i] = ev[i].attempt;
      }
      verdict_words_.resize(nwords);
      fp_->verdict_mask(mask_words_.data(), stage_inj_.data(),
                        stage_att_.data(), n, vscratch_,
                        verdict_words_.data());
      if (lf) stage_deg_.resize(n);
    } else {
      ++simd_windows_;
    }
    chain_next_.resize(n);
    touched_.clear();
    const std::uint64_t emark = static_cast<std::uint64_t>(++epoch_) << 32;
    for (std::size_t base = 0; base < n; base += 64) {
      const std::size_t cnt = std::min<std::size_t>(64, n - base);
      const std::uint64_t valid =
          cnt == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << cnt) - 1;
      const std::uint64_t del = mask_words_[base / 64];
      const std::uint64_t ver =
          fp_ != nullptr ? verdict_words_[base / 64] : 0;
      // Terminal = corrupted deliveries, dead-link traversals, and
      // rate-flagged traversals whose hash drop-hop is this hop. The
      // ordered kernel never consults the drop hash on a dead link, but
      // the hash is pure — computing it for everyone changes no verdict.
      std::uint64_t term = del & ver;
      if (lf) {
        for (std::uint64_t m = ~del & valid; m != 0; m &= m - 1) {
          const std::size_t i =
              base + static_cast<std::size_t>(__builtin_ctzll(m));
          const auto [lu, lv] = sc_.links.endpoints(ev[i].link);
          const int deg = fp_->link_degrade(
              lu, lv, wbase + static_cast<Cycles>(ev[i].key >> 32));
          stage_deg_[i] = deg;
          if (deg == 0) term |= std::uint64_t{1} << (i - base);
        }
      }
      for (std::uint64_t m = ~del & ver & valid & ~term; m != 0;
           m &= m - 1) {
        const std::size_t i =
            base + static_cast<std::size_t>(__builtin_ctzll(m));
        const auto inj =
            static_cast<std::int32_t>(static_cast<std::uint32_t>(ev[i].key));
        const RouteRef& rr = sc_.refs[static_cast<std::size_t>(inj)];
        if (static_cast<int>(ev[i].hop) ==
            fp_->drop_hop(inj, ev[i].attempt, rr.hops))
          term |= std::uint64_t{1} << (i - base);
      }
      // Outcome records in buffer (= canonical) order.
      for (std::uint64_t m = (del | term) & valid; m != 0; m &= m - 1) {
        const std::size_t i =
            base + static_cast<std::size_t>(__builtin_ctzll(m));
        const Cycles t = wbase + static_cast<Cycles>(ev[i].key >> 32);
        const auto inj =
            static_cast<std::int32_t>(static_cast<std::uint32_t>(ev[i].key));
        if (((term >> (i - base)) & 1) == 0) {
          deliveries_.push_back({t, inj, DKind::kDelivered});
        } else if ((del >> (i - base)) & 1) {
          ++corrupted_;
          retry_or_lose(t, inj, ev[i].attempt, -1);
        } else {
          ++dropped_;
          if (telem_)
            ++link_acc_[static_cast<std::size_t>(ev[i].link)].drops;
          retry_or_lose(t, inj, ev[i].attempt, ev[i].link);
        }
      }
      // Surviving link traversals chain per link.
      for (std::uint64_t m = ~(del | term) & valid; m != 0; m &= m - 1) {
        const auto i = static_cast<std::int32_t>(
            base + static_cast<std::size_t>(__builtin_ctzll(m)));
        const std::int32_t l = ev[i].link;
        chain_next_[static_cast<std::size_t>(i)] = -1;
        std::uint64_t& mark = link_mark_[static_cast<std::size_t>(l)];
        if ((mark & ~std::uint64_t{0xffffffff}) != emark) {
          mark = emark | static_cast<std::uint32_t>(i);
          touched_.push_back(l);
        } else {
          chain_next_[static_cast<std::size_t>(
              link_tail_[static_cast<std::size_t>(l)])] = i;
        }
        link_tail_[static_cast<std::size_t>(l)] = i;
      }
    }
    Cycles* const chans = sc_.links.channel_data();
    for (const std::int32_t l : touched_) {
      Cycles* const span = chans + sc_.links.channel_offset(l);
      const auto ccnt = static_cast<std::size_t>(sc_.links.channels(l));
      for (std::int32_t i = static_cast<std::int32_t>(
               static_cast<std::uint32_t>(
                   link_mark_[static_cast<std::size_t>(l)]));
           i != -1; i = chain_next_[static_cast<std::size_t>(i)]) {
        const WEvent& e = ev[i];
        const Cycles t = wbase + static_cast<Cycles>(e.key >> 32);
        const Cycles svc =
            lf ? service_ * stage_deg_[static_cast<std::size_t>(i)]
               : service_;
        const std::size_t c =
            ccnt == 1 ? 0 : util::simd::first_min_index_i64(span, ccnt);
        const Cycles start = t > span[c] ? t : span[c];
        span[c] = start + svc;
        if (telem_)
          accumulate_link(link_acc_[static_cast<std::size_t>(l)], svc,
                          start - t);
        const auto inj =
            static_cast<std::int32_t>(static_cast<std::uint32_t>(e.key));
        const RouteRef& rr = sc_.refs[static_cast<std::size_t>(inj)];
        const std::int32_t nhop = static_cast<std::int32_t>(e.hop) + 1;
        const std::int32_t nlink = nhop == rr.hops ? -1 : rr.span[nhop];
        push_event(start + svc, inj, nlink,
                   static_cast<std::uint16_t>(nhop), e.attempt);
      }
    }
  }

  /// A dropped or corrupted attempt either re-dispatches from hop 0 after
  /// retry_timeout (staying "in flight" from the network's point of view)
  /// or, with retries exhausted or disabled, is abandoned. retry_timeout
  /// >= lookahead (checked at entry) puts the retry in a later window, like
  /// every other successor: a retry into the window being processed would
  /// be pushed into the very bucket the kernel is iterating and then dropped
  /// by its clear() — and for a one-event window, whose kernel reads the
  /// bucket in place, the push could reallocate it under the kernel. Retry
  /// records exist only so the replay can rebuild the cumulative retransmit
  /// counter (and telemetry series) in canonical order.
  ///
  /// With an EpochRouter attached, a retry is also the route recommit
  /// point: the packet adopts its pair's variant for the epoch of the
  /// re-dispatch instant. Mutating sc_.refs[inj] here is safe — a packet
  /// has at most one pending event, and this is it.
  ///
  /// `loss_link` attributes the per-link retransmit/reroute telemetry to
  /// the link that dropped the attempt; -1 (corrupt-at-destination) is
  /// charged to no link.
  void retry_or_lose(Cycles t, std::int32_t inj, std::uint16_t attempt,
                     std::int32_t loss_link) {
    if (fp_->retry_timeout > 0 && attempt < fp_->max_retries) {
      deliveries_.push_back({t, inj, DKind::kRetry});
      if (telem_ && loss_link >= 0)
        ++link_acc_[static_cast<std::size_t>(loss_link)].retransmits;
      const Cycles rt = t + fp_->retry_timeout;
      RouteRef& rr = sc_.refs[static_cast<std::size_t>(inj)];
      if (sc_.router != nullptr) {
        const RouteRef& nv = sc_.router->variant(
            sc_.inj_pair[static_cast<std::size_t>(inj)],
            sc_.router->epoch_of(rt));
        if (nv.span != rr.span) {
          rr = nv;
          if (telem_ && loss_link >= 0)
            ++link_acc_[static_cast<std::size_t>(loss_link)].reroutes;
        }
      }
      push_event(rt, inj, rr.first, 0, static_cast<std::uint16_t>(attempt + 1));
    } else {
      deliveries_.push_back({t, inj, DKind::kLost});
    }
  }

  // ---- Deterministic reduction: replay in canonical (t, inj) order. ----
  // Walking the (sorted) outcome list against the injection array
  // reconstructs the event-by-event +1/-1 in-flight walk and its floating-
  // point accumulation order exactly; how the window kernels batched a
  // record no longer matters.
  void reduce(PacketSimResult& result) {
    const PacketSimConfig& cfg = sc_.cfg;
    util::Histogram histo(0, 64.0 * static_cast<double>(service_) *
                                 static_cast<double>(sc_.topo.num_nodes()),
                          4096);
    Cycles next_sample = (telem_ != nullptr && telem_->sample_every > 0)
                             ? telem_->sample_every
                             : kNever;
    std::int64_t in_flight = 0;
    std::int64_t completed = 0;
    // Reroute replay state: each in-flight packet's committed span. The
    // engine's recommit is a span-pointer compare at each retry; replaying
    // the same compares against the canonical record stream reproduces the
    // cumulative reroute count at each sampled instant.
    std::vector<const std::int32_t*> cur_span;
    if (sc_.router != nullptr) cur_span.resize(sc_.dispatchable);
    const std::size_t nd = deliveries_.size();
    std::size_t di = 0;
    std::size_t ii = 0;
    const Cycles window_close = cfg.warmup + cfg.duration;
    while (ii < sc_.dispatchable || di < nd) {
      // An in-flight packet always has a smaller injection id than the next
      // undispatched injection, so outcome records win timestamp ties — the
      // same tie-break the canonical event order makes.
      const bool take_inj =
          ii < sc_.dispatchable &&
          (di == nd || sc_.injections[ii].born < deliveries_[di].t);
      const Cycles t = take_inj ? sc_.injections[ii].born : deliveries_[di].t;
      while (next_sample <= t) {
        telem_->in_flight.emplace_back(next_sample, in_flight);
        if (fp_) {
          telem_->retransmits.emplace_back(next_sample, result.retransmitted);
          if (sc_.router != nullptr) {
            telem_->reroutes.emplace_back(next_sample, result.rerouted);
            telem_->dead_links.emplace_back(
                next_sample, sc_.router->dead_links_at(next_sample));
          }
        }
        next_sample += telem_->sample_every;
      }
      if (take_inj) {
        result.peak_in_flight = std::max(result.peak_in_flight, ++in_flight);
        if (sc_.router != nullptr)
          cur_span[ii] = sc_.router
                             ->variant(sc_.inj_pair[ii],
                                       sc_.router->epoch_of(t))
                             .span;
        ++ii;
      } else {
        const Delivery& d = deliveries_[di++];
        switch (d.kind) {
          case DKind::kDelivered: {
            if (t >= cfg.warmup && t < window_close) ++result.delivered;
            const Cycles born =
                sc_.injections[static_cast<std::size_t>(d.inj)].born;
            if (born >= cfg.warmup) {
              const auto lat = static_cast<double>(t - born);
              result.latency.add(lat);
              histo.add(lat);
            }
            ++completed;
            --in_flight;
            break;
          }
          case DKind::kLost:
            ++result.lost;
            --in_flight;
            break;
          case DKind::kRetry:
            // The retry itself stays in flight; the record exists so the
            // cumulative counter (and its sampled series) advances at the
            // same canonical instant as in an event-by-event replay.
            ++result.retransmitted;
            if (sc_.router != nullptr) {
              const std::int32_t* nv =
                  sc_.router
                      ->variant(
                          sc_.inj_pair[static_cast<std::size_t>(d.inj)],
                          sc_.router->epoch_of(t + fp_->retry_timeout))
                      .span;
              const std::int32_t** cs =
                  &cur_span[static_cast<std::size_t>(d.inj)];
              if (nv != *cs) {
                ++result.rerouted;
                *cs = nv;
              }
            }
            break;
        }
      }
    }
    if (telem_) {
      // Tail samples up to the horizon carry the final level, matching a
      // event loop's emission on its last processed event.
      while (next_sample <= last_t_) {
        telem_->in_flight.emplace_back(next_sample, in_flight);
        if (fp_) {
          telem_->retransmits.emplace_back(next_sample, result.retransmitted);
          if (sc_.router != nullptr) {
            telem_->reroutes.emplace_back(next_sample, result.rerouted);
            telem_->dead_links.emplace_back(
                next_sample, sc_.router->dead_links_at(next_sample));
          }
        }
        next_sample += telem_->sample_every;
      }
      telem_->horizon = last_t_;
      fill_link_telemetry(telem_, sc_.links, link_acc_);
    }

    // Historically the serial packet store created a slot exactly when its
    // freelist was empty, i.e. when in_flight == slots, so slots ever
    // created == peak in-flight (pinned by tests/test_packet_sim.cpp). The
    // storeless engine reports the same quantity. This holds under faults
    // too: a retrying packet keeps its slot, so slot lifetime still equals
    // the in-flight span.
    result.pool_slots = result.peak_in_flight;
    result.dropped = dropped_;
    result.corrupted = corrupted_;
    result.undrained = result.injected - completed - result.lost;
    result.truncated = result.saturated;
    result.p95_latency = histo.quantile(0.95);
    result.throughput = static_cast<double>(result.delivered) /
                        static_cast<double>(cfg.duration) /
                        static_cast<double>(sc_.topo.num_endpoints());
  }

  const SimContext& sc_;
  const fault::FaultPlan* const fp_;
  /// Faulted windows take the strictly-ordered reference kernel (set only
  /// under util::simd::force_scalar, the test switch).
  const bool ordered_;
  const Cycles service_;
  const bool csort_;  ///< counting sort viable (dt range small enough)
  // Radix plan (0 passes = radix not viable, use counting + introsort).
  int radix_passes_ = 0;
  int radix_rem_ = 0;          ///< inj bits folded into the last pass
  int radix_done_ = 0;         ///< inj bits consumed by the 8-bit passes
  std::size_t radix_hist_ = 0; ///< last-pass histogram size
  const Cycles drain_;
  obs::NetTelemetry* const telem_;
  WindowDiv wdiv_;
  std::int64_t cur_w_ = 0;  ///< window being processed (wheel edge)

  std::vector<WEvent> bucket_[kWheel];  ///< time wheel, index = window & 63
  std::uint64_t nonempty_ = 0;          ///< bit (w & 63) set when bucket used
  /// Second-level wheel: 64 frames of 64 windows each. An event past the
  /// first wheel's horizon but within 64 frames is staged unsorted in its
  /// frame bucket (O(1)) and re-pushed into the first wheel when the
  /// engine's current window enters that frame — every event moves at most
  /// twice, where the spill heap charged O(log n) twice on a structure
  /// that grows with the whole backlog. Deep link queues and retransmit
  /// timeouts put a large fraction of pushes past the first horizon, so
  /// this is the difference between O(1) and O(log backlog) per event
  /// exactly on saturated and faulted runs.
  std::vector<PEvent> frame_[kWheel];  ///< index = (window >> 6) & 63
  std::uint64_t frame_nonempty_ = 0;   ///< bit ((w >> 6) & 63) set when used
  std::int64_t cur_frame_ = 0;         ///< frame of the last entered window
  util::FourAryHeap<PEvent, SpillBefore> spill_;  ///< past both wheels
  std::size_t next_inj_ = 0;  ///< next injection id to dispatch
  std::vector<Delivery> deliveries_;
  std::vector<obs::LinkTelemetry> link_acc_;  ///< per link id, telemetry only
  // Window scratch (capacities persist across windows; no steady-state
  // allocation). link_mark packs (epoch << 32 | head index) so per-window
  // chain reset is one epoch bump instead of an O(links) clear.
  std::vector<std::int32_t> chain_next_;
  std::vector<std::int32_t> touched_;
  std::vector<std::uint64_t> mask_words_;
  // Faulted batch-kernel scratch: staged event identities, the vectorized
  // fault-verdict bitmask, and the per-event link-degrade memo (written in
  // pass 1, read again for the service span in pass 2 so link_degrade runs
  // exactly once per event, as in the ordered kernel).
  std::vector<std::uint64_t> verdict_words_;
  std::vector<std::uint32_t> stage_inj_;
  std::vector<std::uint16_t> stage_att_;
  std::vector<std::int32_t> stage_deg_;
  fault::FaultPlan::VerdictScratch vscratch_;
  std::vector<WEvent> sorted_;            ///< counting-sort output buffer
  std::vector<WEvent> sorted2_;           ///< radix-sort ping-pong buffer
  std::vector<std::uint32_t> dt_pos_;     ///< counting-sort group cursors
  std::vector<std::uint32_t> hist_last_;  ///< radix last-pass histogram
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::int32_t> link_tail_;
  std::uint32_t epoch_ = 0;
  Cycles last_t_ = 0;   ///< latest event processed (telemetry horizon)
  bool trunc_ = false;  ///< discarded events beyond the drain limit
  std::int64_t dropped_ = 0;
  std::int64_t corrupted_ = 0;
  // Engine introspection (PacketSimConfig::metrics), accumulated
  // unconditionally — plain integer adds on paths that already touch the
  // same cache lines — and published once, cold, after the run.
  std::int64_t wheel_pushes_ = 0;   ///< events staged through the wheel
  std::int64_t wheel_peak_ = 0;     ///< max single-bucket occupancy seen
  std::int64_t l2_pushes_ = 0;      ///< events staged through the frame wheel
  std::int64_t heap_spills_ = 0;    ///< events past both wheel horizons
  std::int64_t simd_windows_ = 0;   ///< batch-kernel windows, no plan
  std::int64_t scalar_windows_ = 0; ///< strictly-ordered kernel dispatches
  std::int64_t faulted_simd_windows_ = 0;  ///< batch-kernel windows, plan
  std::int64_t csort_windows_ = 0;  ///< counting-sorted window buffers
  std::int64_t radix_windows_ = 0;  ///< of those, LSD-radix-sorted (large n)
  std::int64_t sort_fallbacks_ = 0; ///< std::sort fallback window buffers
};

}  // namespace

const char* traffic_pattern_name(TrafficPattern p) {
  switch (p) {
    case TrafficPattern::kUniform: return "uniform";
    case TrafficPattern::kTranspose: return "transpose";
    case TrafficPattern::kBitReverse: return "bit-reverse";
    case TrafficPattern::kNeighbor: return "neighbor";
    case TrafficPattern::kHotspot: return "hotspot";
  }
  return "?";
}

PacketSimResult run_packet_sim(const Topology& topo,
                               const PacketSimConfig& cfg) {
  LOGP_CHECK(cfg.injection_rate > 0.0 && cfg.injection_rate <= 1.0);
  const int P = topo.num_endpoints();
  LOGP_CHECK(P >= 2);
  const Cycles service = lookahead(cfg);
  LOGP_CHECK_MSG(service >= 1, "hop_delay + phits must be >= 1");
  util::Xoshiro256StarStar rng(cfg.seed);

  // A null plan and a plan with no packet-level faults are the same thing
  // from here on: fp == nullptr selects the verdict-free path, so both
  // produce output byte-identical to the pre-fault simulator.
  const fault::FaultPlan* fp = nullptr;
  if (cfg.faults != nullptr) {
    cfg.faults->validate();
    if (cfg.faults->has_packet_faults()) {
      fp = cfg.faults;
      LOGP_CHECK_MSG(
          fp->retry_timeout == 0 || fp->retry_timeout >= lookahead(cfg),
          "FaultPlan retry_timeout (" << fp->retry_timeout
                                      << ") must be 0 or >= lookahead ("
                                      << lookahead(cfg) << ")");
      LOGP_CHECK_MSG(fp->max_retries < 65535,
                     "FaultPlan max_retries must fit the packed attempt "
                     "counter (< 65535)");
    }
  }

  PacketSimResult result;
  result.offered_load = cfg.injection_rate;

  // Pre-generate all injections (open-loop source), so the workload is
  // fixed before the engine runs.
  std::vector<Injection> injections;
  const Cycles inject_end = cfg.warmup + cfg.duration;
  const double expected = static_cast<double>(P) *
                          static_cast<double>(inject_end) *
                          cfg.injection_rate;
  injections.reserve(static_cast<std::size_t>(expected + 64.0) +
                     4 * static_cast<std::size_t>(std::sqrt(expected)));
  Cycles max_born = 0;
  for (int e = 0; e < P; ++e) {
    Cycles t = rng.geometric(cfg.injection_rate);
    Cycles last_born = -1;
    while (t < inject_end) {
      const int dst = pick_destination(cfg, e, P, rng);
      Cycles born = t;
      // Fault-plan injection jitter is hashed, not drawn, so it neither
      // consumes RNG state nor disturbs the fault-free sequence. The clamp
      // keeps each endpoint's stream strictly increasing, preserving the
      // canonical (born, src) order the engine keys on.
      if (fp != nullptr && fp->max_injection_delay > 0) {
        born = std::max(t + fp->injection_delay(e, t), last_born + 1);
        last_born = born;
      }
      injections.push_back({born, e, dst});
      max_born = std::max(max_born, born);
      ++result.injected;
      t += rng.geometric(cfg.injection_rate);
    }
  }
  // (born, src) is a canonical order — streams are generated per endpoint
  // in src order, each strictly increasing in time, so a timestamp tie can
  // only involve distinct sources. The sorted index becomes the packet's
  // injection id, the tie-break key of every event queue. Streams are
  // emitted in src order and each is strictly increasing, so a stable
  // counting scatter by born yields exactly the comparison sort's order in
  // O(n + horizon); the comparison sort remains for degenerate cases where
  // the time range dwarfs the population.
  if (injections.size() > 1) {
    const auto range = static_cast<std::size_t>(max_born) + 2;
    if (range <= 8 * injections.size() + 65536) {
      std::vector<std::uint32_t> at(range, 0);
      for (const Injection& in : injections)
        ++at[static_cast<std::size_t>(in.born) + 1];
      for (std::size_t b = 1; b < range; ++b) at[b] += at[b - 1];
      std::vector<Injection> by_born(injections.size());
      for (const Injection& in : injections)
        by_born[at[static_cast<std::size_t>(in.born)]++] = in;
      injections.swap(by_born);
    } else {
      std::sort(injections.begin(), injections.end(),
                [](const Injection& a, const Injection& b) {
                  if (a.born != b.born) return a.born < b.born;
                  return a.src < b.src;
                });
    }
  }

  // Pre-resolve every route in injection order: dense link ids get a
  // deterministic first-touch order, and the engine never hashes or
  // allocates route storage once the window loop starts.
  LinkTable links;
  RouteCache routes(topo, links);
  // Fault-aware rerouting (cfg.reroute) engages only when the plan has a
  // kill interval to route around; the retry is the recommit point, so a
  // retry_timeout is required for the flag to mean anything.
  std::unique_ptr<EpochRouter> router;
  std::vector<std::int32_t> inj_pair;
  if (cfg.reroute && fp != nullptr) {
    bool kills = false;
    for (const fault::LinkFault& lfa : fp->link_faults)
      kills = kills || (lfa.degrade == 0 && lfa.to > lfa.from);
    if (kills) {
      LOGP_CHECK_MSG(fp->retry_timeout > 0,
                     "PacketSimConfig::reroute requires a FaultPlan "
                     "retry_timeout: routes recommit on retry re-dispatch");
      router = std::make_unique<EpochRouter>(topo, *fp, links);
      inj_pair.resize(injections.size());
    }
  }
  std::vector<RouteRef> refs(injections.size());
  for (std::size_t i = 0; i < injections.size(); ++i) {
    RouteRef& rr = refs[i];
    routes.get(injections[i].src, injections[i].dst, rr.span, rr.hops);
    LOGP_CHECK_MSG(rr.hops < 65536,
                   "route longer than the packed hop counter");
    rr.first = rr.hops > 0 ? rr.span[0] : -1;
    if (router != nullptr) {
      // Stamp the injection with its birth epoch's variant — the first
      // dispatch then follows the committed route.
      inj_pair[i] = router->pair_id(injections[i].src, injections[i].dst, rr);
      rr = router->variant(inj_pair[i],
                           router->epoch_of(injections[i].born));
    }
  }

  // Injections past the drain limit are never dispatched (the array is
  // born-sorted, so they form a suffix).
  std::size_t dispatchable = injections.size();
  while (dispatchable > 0 &&
         injections[dispatchable - 1].born > cfg.drain_limit)
    --dispatchable;

  // Pool pre-sizing from the capacity bound (ROADMAP item 5): LogP allows
  // each endpoint at most ceil(L/g) outstanding messages. The network
  // analogue takes L = diameter_hops * service (worst-case unloaded
  // transit) and g = 1/injection_rate (mean inter-injection gap), giving
  // ceil(diameter * service * rate) expected in-flight packets per
  // endpoint. Saturated runs may exceed any static bound and regrow.
  const std::size_t reserve =
      static_cast<std::size_t>(P) *
      static_cast<std::size_t>(std::max<Cycles>(
          1, static_cast<Cycles>(std::ceil(
                 static_cast<double>(std::max(1, topo.diameter_hops())) *
                 static_cast<double>(service) * cfg.injection_rate))));

  const SimContext sc{topo,
                      cfg,
                      links,
                      injections,
                      refs,
                      dispatchable,
                      service,
                      reserve,
                      fp,
                      router.get(),
                      router != nullptr ? inj_pair.data() : nullptr};

  Engine engine(sc);
  engine.run(result);
  return result;
}

}  // namespace logp::net
