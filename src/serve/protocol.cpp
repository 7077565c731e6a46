#include "serve/protocol.hpp"

namespace tcgrid::serve {

namespace json = util::json;

bool valid_identifier(std::string_view s) {
  if (s.empty() || s.size() > 64 || s.front() == '.') return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string submit_request(std::string_view tenant, const json::Value& spec,
                           std::string_view job) {
  json::Object req{{"op", "submit"}, {"tenant", tenant}, {"spec", spec}};
  if (!job.empty()) req.emplace_back("job", job);
  return json::dump(json::Value(std::move(req)));
}

std::string status_request(std::string_view job) {
  return json::dump(json::Value(json::Object{{"op", "status"}, {"job", job}}));
}

std::string results_request(std::string_view job, std::size_t from, bool wait) {
  return json::dump(json::Value(json::Object{{"op", "results"},
                                             {"job", job},
                                             {"from", static_cast<unsigned long long>(from)},
                                             {"wait", wait}}));
}

std::string cancel_request(std::string_view job) {
  return json::dump(json::Value(json::Object{{"op", "cancel"}, {"job", job}}));
}

std::string counters_request() {
  return json::dump(json::Value(json::Object{{"op", "counters"}}));
}

std::string metrics_request(std::string_view format) {
  return json::dump(
      json::Value(json::Object{{"op", "metrics"}, {"format", format}}));
}

std::string register_request(std::string_view shard) {
  json::Object req{{"op", "register"}};
  if (!shard.empty()) req.emplace_back("shard", shard);
  return json::dump(json::Value(std::move(req)));
}

std::string heartbeat_request() {
  return json::dump(json::Value(json::Object{{"op", "heartbeat"}}));
}

std::string lease_request(std::string_view tenant, const std::vector<std::size_t>& units,
                          std::string_view spec_json) {
  // Hand-assembled so the pre-dumped spec splices in without a reparse.
  std::string out;
  out.reserve(96 + spec_json.size() + units.size() * 8);
  out += "{\"op\":\"lease\",\"tenant\":";
  json::append_quoted(tenant, out);
  out += ",\"units\":[";
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(units[i]);
  }
  out += "],\"spec\":";
  out += spec_json;
  out += '}';
  return out;
}

}  // namespace tcgrid::serve
