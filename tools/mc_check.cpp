// mc_check: the model-checking CLI and CI correctness gate.
//
// Exhaustively (or up to --max-branches) explores the interleaving tree of
// one or more protocol scenarios at small P, asserting the five protocol
// invariants (src/mc/invariants.hpp) on every terminal state. A violation
// prints its choice string — `--replay <string>` reruns exactly that
// interleaving through the normal scheduler path and, with --dump-dir,
// writes its Chrome-trace JSON for chrome://tracing / Perfetto plus the
// critical-path artifact (obs/critical_path.hpp) of the same interleaving,
// so a counterexample arrives with the dependency chain that produced its
// schedule (tools/trace_summary.py renders both).
//
//   mc_check --scenario retransmit_race --p 3                 # exhaustive
//   mc_check --scenario all --p 2,3 --summary-json mc.json    # CI gate
//   mc_check --scenario send_ack --p 5 --max-branches 200000 \
//            --shards 8 --threads 8                           # deep, capped
//   mc_check --scenario send_ack --p 3 --replay 0,2,1 --dump-dir traces/
//
// Exit status: 0 all invariants hold, 1 violation found, 2 usage error.
//
// The --summary-json file ({"model_check": {"<scenario>/P=<n>": {...}}})
// feeds tools/bench_record.py --compare, which fails the gate when explored
// coverage silently drops between runs the same way it fails a perf
// regression.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/explorer.hpp"
#include "mc/invariants.hpp"
#include "mc/oracle.hpp"
#include "mc/scenarios.hpp"
#include "obs/cli.hpp"
#include "util/check.hpp"

namespace {

using namespace logp;

std::vector<int> parse_int_list(const std::string& csv, const char* what) {
  std::vector<int> vals = mc::parse_choices(csv);
  LOGP_CHECK_MSG(!vals.empty(), "empty " << what << " list");
  return vals;
}

std::string combo_key(const mc::ScenarioConfig& cfg) {
  std::ostringstream os;
  os << cfg.scenario << "/P=" << cfg.P();
  return os.str();
}

void dump_trace(const std::string& dir, const std::string& name,
                const std::string& json) {
  const std::string path = dir + "/" + name;
  std::ofstream f(path, std::ios::binary);
  LOGP_CHECK_MSG(f.good(), "cannot write " << path);
  f << json;
  f.close();
  std::printf("  trace written: %s\n", path.c_str());
}

struct ComboSummary {
  std::string key;
  mc::ExplorerResult result;
};

void write_summary(const std::string& path,
                   const std::vector<ComboSummary>& combos) {
  std::ofstream f(path, std::ios::binary);
  LOGP_CHECK_MSG(f.good(), "cannot write " << path);
  f << "{\n  \"model_check\": {\n";
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const auto& c = combos[i];
    f << "    \"" << c.key << "\": {"
      << "\"runs\": " << c.result.runs
      << ", \"choice_points\": " << c.result.choice_points
      << ", \"pruned\": " << c.result.pruned
      << ", \"max_depth\": " << c.result.max_depth
      << ", \"capped\": " << (c.result.capped ? "true" : "false")
      << ", \"violations\": " << c.result.violations.size() << "}"
      << (i + 1 < combos.size() ? "," : "") << "\n";
  }
  f << "  }\n}\n";
}

int run_replay(mc::ScenarioConfig cfg, const std::vector<int>& choices,
               const std::string& dump_dir) {
  mc::RecordingOracle oracle(choices, cfg.drop_budget);
  const bool want_trace = !dump_dir.empty();
  const mc::RunOutcome out = mc::run_scenario(cfg, &oracle, want_trace);
  const std::vector<std::string> bad = mc::check_invariants(cfg, out);
  std::printf("replay %s: %s, finish=%lld, choice points=%zu\n",
              combo_key(cfg).c_str(), out.ok ? "completed" : "FAILED",
              static_cast<long long>(out.finish), oracle.record().size());
  if (!out.sends.empty())
    std::printf(
        "  reliable: sends=%lld retransmits=%lld duplicates=%lld "
        "delivered=%lld dead_peers=%lld\n",
        static_cast<long long>(out.rel.data_sends),
        static_cast<long long>(out.rel.retransmits),
        static_cast<long long>(out.rel.duplicates),
        static_cast<long long>(out.rel.delivered),
        static_cast<long long>(out.rel.dead_peers));
  for (const std::string& b : bad)
    std::printf("  VIOLATION: %s\n", b.c_str());
  if (want_trace) {
    std::ostringstream name;
    name << "mc_" << cfg.scenario << "_p" << cfg.P() << "_replay";
    dump_trace(dump_dir, name.str() + ".json", out.trace_json);
    dump_trace(dump_dir, name.str() + ".critpath.json", out.critpath_json);
  }
  return bad.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scen_arg = "send_ack";
  std::string p_arg = "3";
  int messages = 1;
  int retries = 3;
  int timeout = 0;
  int drop_budget = -1;
  int latency_min = -1;
  std::string dead_arg;
  int max_branches = 0;
  mc::ExplorerOptions opts;
  std::string prefix_arg;
  std::string replay_arg;
  std::string dump_dir;
  std::string summary_path;
  int rounds = 0;
  bool mutate = false;
  bool mutate_bump = false;
  if (const int rc = obs::parse_cli(
          argc, argv,
          {{"--scenario NAMES", &scen_arg,
            "comma list or 'all' (send_ack, retransmit_race, "
            "reliable_broadcast, resilient_broadcast, resilient_reduce, "
            "detector, rejoin, epoch_broadcast)"},
           {"--p LIST", &p_arg, "comma list of processor counts"},
           {"--messages N", &messages, "payloads per sender/destination pair"},
           {"--retries N", &retries, "reliable-layer max retries"},
           {"--timeout CYC", &timeout,
            "first ack timeout (0 = scenario default)"},
           {"--drop-budget N", &drop_budget,
            "adversarial losses per path (<= retries; -1 = scenario default)"},
           {"--latency-min CYC", &latency_min,
            "enable latency choice points in [CYC, L] (-1 = off)"},
           {"--dead LIST", &dead_arg, "processors failed from cycle 0"},
           {"--max-branches N", &max_branches,
            "cap explored interleavings (0 = exhaustive)"},
           {"--shards N", &opts.shards, "partition the root subtrees"},
           {"--shard I", &opts.shard, "explore only shard I (-1: all)"},
           {"--threads N", &opts.threads, "parallelism across shards"},
           {"--seed-prefix CSV", &prefix_arg,
            "explore only under this choice prefix"},
           {"--max-violations N", &opts.max_violations,
            "stop after N violations"},
           {"--replay CSV", &replay_arg,
            "run one interleaving, report, and exit"},
           {"--dump-dir DIR", &dump_dir,
            "write counterexample / replay traces here (Chrome trace + "
            "critical-path JSON per run)"},
           {"--summary-json F", &summary_path,
            "write the model_check coverage summary"},
           {"--rounds N", &rounds,
            "heartbeat rounds in the detector scenario (0 = scenario "
            "default, 2)"},
           {"--mutate-no-dedup", &mutate,
            "seed the dedup bug (mutation test; must fail)"},
           {"--mutate-no-epoch-bump", &mutate_bump,
            "seed the membership epoch bug (rejoin scenario mutation test; "
            "must fail)"}}))
    return rc;

  try {
    std::vector<std::string> scenarios;
    if (scen_arg == "all") {
      scenarios = mc::scenario_names();
    } else {
      std::istringstream is(scen_arg);
      std::string tok;
      while (std::getline(is, tok, ',')) scenarios.push_back(tok);
    }
    const std::vector<int> ps = parse_int_list(p_arg, "--p");
    opts.max_branches = max_branches;
    opts.seed_prefix = mc::parse_choices(prefix_arg);

    std::vector<ComboSummary> combos;
    bool any_violation = false;
    for (const std::string& name : scenarios) {
      for (const int P : ps) {
        mc::ScenarioConfig cfg = mc::scenario_defaults(name, P);
        cfg.messages = messages;
        cfg.max_retries = retries;
        if (timeout > 0) cfg.base_timeout = timeout;
        // Scenarios that forbid adversarial loss keep their forced 0.
        if (drop_budget >= 0 && cfg.drop_budget > 0)
          cfg.drop_budget = drop_budget;
        cfg.latency_min = latency_min;
        if (rounds > 0) cfg.detector_rounds = rounds;
        for (const int d : mc::parse_choices(dead_arg))
          cfg.dead_procs.push_back(d);
        cfg.mutate_no_dedup =
            mutate && !cfg.is_resilient() && !cfg.is_membership();
        cfg.mutate_no_epoch_bump = mutate_bump && cfg.scenario == "rejoin";

        if (!replay_arg.empty())
          return run_replay(cfg, mc::parse_choices(replay_arg), dump_dir);

        const mc::ExplorerResult res = mc::explore(cfg, opts);
        std::printf(
            "%-28s runs=%lld choice_points=%lld pruned=%lld max_depth=%lld%s "
            "violations=%zu\n",
            combo_key(cfg).c_str(), static_cast<long long>(res.runs),
            static_cast<long long>(res.choice_points),
            static_cast<long long>(res.pruned),
            static_cast<long long>(res.max_depth),
            res.capped ? " (capped)" : "", res.violations.size());
        for (const mc::Violation& v : res.violations) {
          any_violation = true;
          const std::string choices = mc::format_choices(v.choices);
          std::printf("  VIOLATION at choices [%s]:\n", choices.c_str());
          for (const std::string& b : v.failures)
            std::printf("    %s\n", b.c_str());
          std::printf(
              "  replay: mc_check --scenario %s --p %d --replay %s\n",
              cfg.scenario.c_str(), cfg.P(), choices.c_str());
          if (!dump_dir.empty()) {
            mc::RecordingOracle oracle(v.choices, cfg.drop_budget);
            const mc::RunOutcome rerun = mc::run_scenario(cfg, &oracle, true);
            std::ostringstream fname;
            fname << "mc_" << cfg.scenario << "_p" << cfg.P() << "_violation";
            dump_trace(dump_dir, fname.str() + ".json", rerun.trace_json);
            dump_trace(dump_dir, fname.str() + ".critpath.json",
                       rerun.critpath_json);
          }
        }
        combos.push_back(ComboSummary{combo_key(cfg), res});
      }
    }
    if (!summary_path.empty()) write_summary(summary_path, combos);
    return any_violation ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mc_check: %s\n", e.what());
    return 2;
  }
}
