#include "obs/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <utility>

namespace logp::obs {

namespace {

/// Appends the flags of the declared sinks.
std::vector<Flag> with_sinks(std::vector<Flag> flags, unsigned sinks,
                             ObsFlags* obs) {
  if (sinks == 0) return flags;
  LOGP_CHECK_MSG(obs != nullptr, "sinks declared without an ObsFlags");
  const std::pair<unsigned, Flag> table[] = {
      {sink::kTrace,
       {"--trace", &obs->trace,
        "print the exemplar run's activity-interval CSV"}},
      {sink::kProfile,
       {"--profile", &obs->profile,
        "print the exemplar run's LogP signature (or link telemetry) table"}},
      {sink::kTraceJson,
       {"--trace-json FILE", &obs->trace_json,
        "write a Chrome trace (chrome://tracing / Perfetto)"}},
      {sink::kMetricsCsv,
       {"--metrics-csv FILE", &obs->metrics_csv,
        "dump the metrics registry attached to the exemplar run"}},
      {sink::kCriticalPath,
       {"--critical-path FILE", &obs->critical_path,
        "write the critical-path artifact (.csv = chain table, else JSON)"}},
      {sink::kWhatif,
       {"--whatif SPEC", &obs->whatif,
        "print the predicted finish under scaled parameters, e.g. "
        "L=0.5x,o=2x"}},
      {sink::kLinksCsv,
       {"--links-csv FILE", &obs->links_csv,
        "dump the per-link telemetry CSV (drops/retransmits/reroutes)"}},
  };
  for (const auto& [bit, flag] : table)
    if (sinks & bit) flags.push_back(flag);
  return flags;
}

std::string usage_text(const char* prog, const std::vector<Flag>& flags) {
  std::ostringstream os;
  os << "usage: " << prog;
  if (flags.empty()) os << " (takes no flags)";
  std::size_t width = 0;
  for (const Flag& f : flags) {
    os << " [" << f.spec << ']';
    width = std::max(width, std::string_view(f.spec).size());
  }
  os << '\n';
  for (const Flag& f : flags) {
    os << "  " << std::left << std::setw(static_cast<int>(width)) << f.spec
       << "  " << f.help;
    if (const auto* n = std::get_if<int*>(&f.target)) {
      os << "  [" << **n << ']';
    } else if (const auto* s = std::get_if<std::string*>(&f.target);
               s != nullptr && !(*s)->empty()) {
      os << "  [" << **s << ']';
    }
    os << '\n';
  }
  return os.str();
}

/// Full-string base-10 int parse: no trailing junk, no overflow.
bool parse_int(const char* s, int* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN ||
      v > INT_MAX)
    return false;
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

int parse_cli(int argc, char** argv, std::vector<Flag> flags, unsigned sinks,
              ObsFlags* obs, std::ostream& err) {
  flags = with_sinks(std::move(flags), sinks, obs);
  // Rendered before parsing so the help lines show the defaults.
  const std::string usage = usage_text(argv[0], flags);
  const auto fail = [&](const auto&... msg) {
    err << argv[0] << ": ";
    (err << ... << msg);
    err << '\n' << usage;
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    const auto f = std::find_if(flags.begin(), flags.end(), [&](const Flag& x) {
      const std::string_view spec = x.spec;
      return spec.substr(0, spec.find(' ')) == name;  // drop the METAVAR
    });
    if (f == flags.end()) return fail("unknown argument '", arg, "'");
    const bool inline_value = name.size() < arg.size();
    if (bool* const* b = std::get_if<bool*>(&f->target)) {
      if (inline_value)
        return fail("bad value '", arg.substr(name.size() + 1), "' for ",
                    name, " (takes no value)");
      **b = true;
      continue;
    }
    const char* value = inline_value ? argv[i] + name.size() + 1
                        : i + 1 < argc ? argv[++i]
                                       : nullptr;
    if (value == nullptr) return fail("bad value for ", name, " (missing)");
    if (int* const* n = std::get_if<int*>(&f->target)) {
      if (!parse_int(value, *n))
        return fail("bad value '", value, "' for ", name,
                    " (expects an integer)");
    } else {
      if (*value == '\0') return fail("bad value '' for ", name, " (empty)");
      *std::get<std::string*>(f->target) = value;
    }
  }
  return 0;
}

void write_file(const std::string& path, const std::string& content,
                std::ostream& err) {
  std::ofstream f(path, std::ios::binary);
  LOGP_CHECK_MSG(static_cast<bool>(f), "cannot open " << path << " for write");
  f << content;
  LOGP_CHECK_MSG(static_cast<bool>(f), "short write to " << path);
  err << "[obs] wrote " << path << " (" << content.size() << " bytes)\n";
}

}  // namespace logp::obs
