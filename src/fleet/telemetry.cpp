#include "fleet/telemetry.hpp"

#include <sstream>

namespace aabft::fleet {
namespace {

void append_recorder(std::ostringstream& out, const char* name,
                     const LatencyRecorder& rec) {
  out << "\"" << name << "\": {\"count\": " << rec.count()
      << ", \"mean\": " << rec.mean() << ", \"p50\": " << rec.p50()
      << ", \"p95\": " << rec.p95() << ", \"p99\": " << rec.p99()
      << ", \"max\": " << rec.max() << "}";
}

/// Indent every line of a rendered JSON sub-document so nesting stays
/// readable (serve::to_json emits a multi-line object).
std::string indent(const std::string& json, const std::string& pad) {
  std::ostringstream out;
  std::istringstream in(json);
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!first) out << "\n" << pad;
    out << line;
    first = false;
  }
  return out.str();
}

}  // namespace

std::string to_json(const FleetStats& stats) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"devices\": " << stats.shards.size() << ",\n";
  out << "  \"fenced_devices\": " << stats.fenced_devices << ",\n";
  out << "  \"submitted\": " << stats.submitted << ",\n";
  out << "  \"rejected\": " << stats.rejected << ",\n";
  out << "  \"replays\": " << stats.replays << ",\n";
  out << "  \"reconstructions\": " << stats.reconstructions << ",\n";
  out << "  \"operand_dedups\": " << stats.operand_dedups << ",\n";
  out << "  \"shards\": [\n";
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStats& s = stats.shards[i];
    out << "    {\n";
    out << "      \"shard\": " << s.shard << ",\n";
    out << "      \"device\": \"" << s.device << "\",\n";
    out << "      \"state\": \"" << to_string(s.state) << "\",\n";
    out << "      \"availability\": " << s.availability << ",\n";
    out << "      \"correction_rate\": " << s.correction_rate << ",\n";
    out << "      \"failure_rate\": " << s.failure_rate << ",\n";
    out << "      \"observations\": " << s.observations << ",\n";
    out << "      \"routed\": " << s.routed << ",\n";
    out << "      \"replayed\": " << s.replayed << ",\n";
    out << "      \"queued\": " << s.queued << ",\n";
    out << "      \"inflight\": " << s.inflight << ",\n";
    out << "      ";
    append_recorder(out, "fleet_e2e_ns", s.fleet_e2e_ns);
    out << ",\n";
    out << "      \"server\": " << indent(to_json(s.server), "      ") << "\n";
    out << "    }" << (i + 1 < stats.shards.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"totals\": " << indent(to_json(stats.totals), "  ") << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace aabft::fleet
