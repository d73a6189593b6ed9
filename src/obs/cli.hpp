// The command line of every figure/table bench binary and tools/mc_check.
//
// One table-driven parser, parse_cli, reads argv against the flag list a
// binary declares in one place: each Flag names its spelling, the variable
// it sets (whose initial value is the default) and a one-line help text,
// and the usage text is generated from the same list. Besides its own
// flags, a bench declares the observability sinks its exemplar run can
// emit (obs::sink::*); parse_cli accepts exactly those flags into an
// ObsFlags. All sinks default off, so default output stays byte-identical
// (CI diffs it). Machine-level benches emit through emit_machine_obs;
// packet-level ones (no Machine, so no activity intervals and no
// message/compute DAG) through emit_packet_obs.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <variant>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/net_telemetry.hpp"
#include "obs/profiler.hpp"
#include "obs/whatif.hpp"
#include "trace/timeline.hpp"
#include "util/check.hpp"

namespace logp::obs {

struct ObsFlags {
  bool trace = false;
  bool profile = false;
  std::string trace_json;     ///< output path; empty = off
  std::string metrics_csv;    ///< output path; empty = off
  std::string critical_path;  ///< output path; empty = off
  std::string whatif;         ///< "L=0.5x,o=2x,..." spec; empty = off
  std::string links_csv;      ///< output path; empty = off (packet-level)

  bool any() const {
    return trace || profile || !trace_json.empty() || !metrics_csv.empty() ||
           !links_csv.empty() || wants_critpath();
  }
  /// True when the exemplar run should record intervals.
  bool wants_trace() const { return trace || !trace_json.empty(); }
  /// True when the exemplar run needs a CritPathRecorder attached.
  bool wants_critpath() const {
    return !critical_path.empty() || !whatif.empty();
  }
};

/// One command-line flag. `spec` is the spelling shown in the usage line:
/// "--name" for a switch, "--name METAVAR" for a flag taking a value (as
/// `--name V` or `--name=V`). The target's value before parsing is the
/// default.
struct Flag {
  const char* spec;
  std::variant<bool*, int*, std::string*> target;
  const char* help;
};

/// The `--threads N` flag of the benches that fan work out on the shared
/// thread pool (0 = hardware concurrency).
inline Flag threads_flag(int* threads) {
  return {"--threads N", threads,
          "worker threads (0 = one per hardware thread)"};
}

/// The observability sinks a bench can declare, one bit per flag; usage
/// lists declared sinks in this order.
namespace sink {
inline constexpr unsigned kTrace = 1u << 0;
inline constexpr unsigned kProfile = 1u << 1;
inline constexpr unsigned kTraceJson = 1u << 2;
inline constexpr unsigned kMetricsCsv = 1u << 3;
inline constexpr unsigned kCriticalPath = 1u << 4;
inline constexpr unsigned kWhatif = 1u << 5;
inline constexpr unsigned kLinksCsv = 1u << 6;
/// What emit_machine_obs can produce from a recorded, registry-attached run.
inline constexpr unsigned kMachine = kTrace | kProfile | kTraceJson |
                                     kMetricsCsv;
/// Everything emit_packet_obs produces.
inline constexpr unsigned kPacket = kProfile | kTraceJson | kMetricsCsv |
                                    kLinksCsv;
}  // namespace sink

/// Parses argv against `flags` plus the declared `sinks` (stored into
/// *obs, which may be null only when sinks == 0). Returns 0 on success.
/// On an unknown argument, an undeclared sink, or a malformed or missing
/// value it writes "unknown argument" / "bad value" and the usage generated
/// from the table (a "usage:" line listing every flag, then one help line
/// per flag with its default) to `err`, and returns 2, the exit code for
/// CLI misuse; callers return it before running anything. Integers must
/// parse in full; a repeated flag keeps its last value.
int parse_cli(int argc, char** argv, std::vector<Flag> flags,
              unsigned sinks = 0, ObsFlags* obs = nullptr,
              std::ostream& err = std::cerr);

/// Writes `content` to `path`, reporting the write on `err` (benches keep
/// stdout byte-deterministic for CI diffs; file notices go to stderr).
void write_file(const std::string& path, const std::string& content,
                std::ostream& err = std::cerr);

/// Emits everything the flags ask for from one finished machine run.
/// `metrics` is the registry the caller attached to the run; it may be null
/// only when --metrics-csv is off. `cp` is the recorder the caller attached
/// when flags.wants_critpath(); when present its analysis also overlays the
/// Chrome trace.
/// Header-only so logp_obs does not link logp_sim.
inline void emit_machine_obs(const ObsFlags& flags, const sim::Machine& m,
                             const std::string& label, std::ostream& out,
                             const MetricsRegistry* metrics = nullptr,
                             const CritPathRecorder* cp = nullptr) {
  LOGP_CHECK_MSG(flags.links_csv.empty(),
                 "--links-csv needs a packet-level run; this bench is "
                 "machine-level");
  if (flags.profile) {
    const LogPProfile prof = profile_machine(m);
    prof.check_invariant();
    out << '\n' << "-- " << label << " --\n" << prof.render_table();
  }
  if (flags.trace) {
    LOGP_CHECK_MSG(m.recorder().enabled(),
                   "--trace requires the run to record (record_trace)");
    out << '\n' << "-- " << label << ": activity intervals --\n"
        << trace::render_csv(m.recorder());
  }
  CritPathReport rep;
  if (cp != nullptr && !cp->empty() &&
      (flags.wants_critpath() || !flags.trace_json.empty()))
    rep = analyze_critical_path(*cp);
  if (!flags.trace_json.empty()) {
    LOGP_CHECK_MSG(m.recorder().enabled(),
                   "--trace-json requires the run to record (record_trace)");
    ChromeTraceWriter w;
    w.add_intervals(m.recorder(), m.params().P, label);
    if (!rep.empty()) w.add_critical_path(rep);
    write_file(flags.trace_json, w.str());
  }
  if (!flags.metrics_csv.empty()) {
    LOGP_CHECK_MSG(metrics != nullptr,
                   "--metrics-csv requires a registry-attached run");
    write_file(flags.metrics_csv, metrics->to_csv());
  }
  if (!flags.critical_path.empty()) {
    LOGP_CHECK_MSG(cp != nullptr,
                   "--critical-path requires a recorder-attached run");
    const bool csv = flags.critical_path.size() >= 4 &&
                     flags.critical_path.compare(
                         flags.critical_path.size() - 4, 4, ".csv") == 0;
    write_file(flags.critical_path,
               csv ? critpath_csv(rep) : critpath_json(rep));
  }
  if (!flags.whatif.empty()) {
    LOGP_CHECK_MSG(cp != nullptr, "--whatif requires a recorder-attached run");
    std::string err;
    const auto spec = parse_whatif(flags.whatif, &err);
    LOGP_CHECK_MSG(spec.has_value(), "--whatif: " << err);
    out << '\n' << "-- " << label << ": what-if --\n"
        << whatif_table({whatif(*cp, *spec)});
  }
}

/// Emits the packet-level subset from one finished run_packet_sim call:
///   --profile      per-link telemetry table (top 10 by utilization)
///   --trace-json   Chrome trace with the sampled in-flight counter track
///                  (plus cumulative retransmits when the run was faulted)
///   --metrics-csv  the engine-introspection registry (net.wheel.*,
///                  net.kernel.*, net.sort.*, net.heap.spills)
///   --links-csv    full per-link telemetry CSV (12 columns ending
///                  drops,retransmits,reroutes — the fault-path series)
/// The caller attaches `tel` / `metrics` to the exemplar's PacketSimConfig
/// and runs it; both sinks are single-owner, so benches re-run one exemplar
/// scenario serially rather than instrumenting a parallel sweep.
inline void emit_packet_obs(const ObsFlags& flags, const NetTelemetry& tel,
                            const MetricsRegistry& metrics,
                            const std::string& label, std::ostream& out) {
  if (flags.profile)
    out << '\n' << "-- " << label << ": link telemetry (top 10) --\n"
        << tel.render_links_table(10)
        << "max utilization " << tel.max_utilization() << ", total queue wait "
        << tel.total_queue_wait() << " cyc, max backlog " << tel.max_backlog()
        << "\n";
  if (!flags.trace_json.empty()) {
    ChromeTraceWriter w;
    w.add_counter("in_flight", tel.in_flight);
    if (!tel.retransmits.empty()) w.add_counter("retransmits", tel.retransmits);
    write_file(flags.trace_json, w.str());
  }
  if (!flags.metrics_csv.empty()) write_file(flags.metrics_csv, metrics.to_csv());
  if (!flags.links_csv.empty()) write_file(flags.links_csv, tel.to_csv());
}

}  // namespace logp::obs
