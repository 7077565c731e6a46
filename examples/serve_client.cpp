// serve_client — command-line client for the tcgrid_serve daemon.
//
// Speaks the newline-delimited-JSON serve protocol (DESIGN.md §11) over the
// daemon's unix socket. Result rows stream to stdout as JSONL, one line per
// (scenario, trial, heuristic); everything else (acks, status) also prints
// as the raw protocol line so output is scriptable.
//
//   serve_client submit   --socket S --tenant T (--spec FILE | --reduced M [--cap N])
//                         [--job ID] [--follow]
//   serve_client status   --socket S --job ID
//   serve_client results  --socket S --job ID [--from N] [--wait]
//   serve_client cancel   --socket S --job ID
//   serve_client counters --socket S [--json]
//   serve_client metrics  --socket S [--json | --prometheus]
//   serve_client register --socket S --shard ADDR
//
// --socket accepts a unix path or "tcp:HOST:PORT" (any daemon started with
// --listen-tcp). `register` tells a coordinator daemon to start leasing
// units to the shard daemon at ADDR — the runtime way to grow the fleet.
// `submit --follow` submits, then streams rows until the job is terminal —
// the one-command equivalent of run_experiment against a warm daemon.
// `counters` and `metrics` render aligned tables for humans by default;
// --json keeps the raw one-line protocol response for scripts, and
// `metrics --prometheus` prints the text exposition for a scrape pipeline.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"
#include "util/table.hpp"

namespace {

namespace json = tcgrid::util::json;
using tcgrid::util::LineChannel;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: serve_client <submit|status|results|cancel|counters|metrics|register> --socket PATH ...\n"
      "  submit   --tenant T (--spec FILE | --reduced M [--cap N]) [--job ID] [--follow]\n"
      "  status   --job ID\n"
      "  results  --job ID [--from N] [--wait]\n"
      "  cancel   --job ID\n"
      "  counters [--json]\n"
      "  metrics  [--json | --prometheus]\n"
      "  register --shard ADDR   (tell a coordinator to lease to the shard at ADDR)\n"
      "  PATH is a unix socket path or tcp:HOST:PORT\n");
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// One request, one response line. Throws on transport failure.
std::string roundtrip(LineChannel& ch, const std::string& request) {
  if (!ch.write_line(request)) throw std::runtime_error("server closed the connection");
  std::string response;
  if (!ch.read_line(response)) throw std::runtime_error("server closed the connection");
  return response;
}

/// Print protocol lines until the "end" record; returns the end line.
/// Row lines go to stdout verbatim (they ARE the output format).
std::string stream_rows(LineChannel& ch) {
  std::string line;
  while (ch.read_line(line)) {
    const json::Value v = json::parse(line);
    if (const json::Value* type = v.find("type");
        type != nullptr && type->is_string() && type->as_string() == "end") {
      return line;
    }
    if (const json::Value* ok = v.find("ok"); ok != nullptr && ok->is_bool() &&
                                              !ok->as_bool()) {
      throw std::runtime_error("server error: " + line);
    }
    std::printf("%s\n", line.c_str());
  }
  throw std::runtime_error("server closed the connection mid-stream");
}

/// Fails loudly on {"ok":false,...} responses so scripts see exit 1.
void check_ok(const std::string& response) {
  const json::Value v = json::parse(response);
  const json::Value* ok = v.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    throw std::runtime_error("server error: " + response);
  }
}

std::string uint_cell(const json::Value& parent, const char* key) {
  const json::Value* v = parent.find(key);
  return v == nullptr ? "-" : std::to_string(v->as_uint());
}

/// Human-readable rendering of a `counters` response: one fleet summary
/// line, then one table row per tenant.
void print_counters_table(const json::Value& v) {
  const json::Value* fleet = v.find("fleet");
  std::printf("threads %s  jobs %s", uint_cell(v, "threads").c_str(),
              uint_cell(v, "jobs").c_str());
  if (fleet != nullptr) {
    std::printf("  queue %s  inflight %s  busy %s",
                uint_cell(*fleet, "queue_depth").c_str(),
                uint_cell(*fleet, "inflight_units").c_str(),
                uint_cell(*fleet, "busy_workers").c_str());
  }
  std::printf("\n");
  if (const json::Value* coord = v.find("coordinator"); coord != nullptr) {
    std::printf(
        "coordinator: shards %s (%s live)  leased %s  "
        "re-dispatched %s  duplicate commits %s\n",
        uint_cell(*coord, "shards").c_str(), uint_cell(*coord, "live_shards").c_str(),
        uint_cell(*coord, "leased_units").c_str(),
        uint_cell(*coord, "redispatched_units").c_str(),
        uint_cell(*coord, "duplicate_commits").c_str());
  }
  std::printf("\n");
  tcgrid::util::Table table({"tenant", "jobs", "units", "rows", "inflight",
                             "draining", "evictions", "chains", "set hits",
                             "store bytes"});
  if (const json::Value* tenants = v.find("tenants"); tenants != nullptr) {
    for (const auto& [name, t] : tenants->as_object()) {
      const json::Value* store = t.find("chain_store");
      table.add_row(
          {name, uint_cell(t, "jobs"), uint_cell(t, "units_done"),
           uint_cell(t, "rows"), uint_cell(t, "inflight"),
           t.find("draining")->as_bool() ? "yes" : "no", uint_cell(t, "evictions"),
           store != nullptr ? uint_cell(*store, "chains") : "-",
           store != nullptr ? uint_cell(*store, "set_hits") : "-",
           store != nullptr ? uint_cell(*store, "bytes") : "-"});
    }
  }
  std::printf("%s", table.str().c_str());
}

/// Human-readable rendering of a `metrics` response: one table row per
/// series — counters/gauges show their value, histograms count + mean.
void print_metrics_table(const json::Value& v) {
  if (const json::Value* enabled = v.find("enabled");
      enabled != nullptr && enabled->is_bool() && !enabled->as_bool()) {
    std::printf("(obs disabled on the daemon — series are registered but zero)\n");
  }
  tcgrid::util::Table table({"metric", "labels", "kind", "value", "mean"});
  const json::Value* metrics = v.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    throw std::runtime_error("metrics: malformed response (no metrics array)");
  }
  for (const json::Value& m : metrics->as_array()) {
    std::string labels;
    if (const json::Value* l = m.find("labels"); l != nullptr) {
      for (const auto& [k, lv] : l->as_object()) {
        if (!labels.empty()) labels += ',';
        labels += k + "=" + lv.as_string();
      }
    }
    const std::string kind = m.find("kind")->as_string();
    std::string value, mean = "-";
    if (kind == "histogram") {
      const unsigned long long count = m.find("count")->as_uint();
      const unsigned long long sum = m.find("sum")->as_uint();
      value = std::to_string(count);
      if (count > 0) {
        mean = tcgrid::util::Table::num(static_cast<double>(sum) /
                                        static_cast<double>(count));
      }
    } else {
      value = json::dump(*m.find("value"));
    }
    table.add_row({m.find("name")->as_string(), labels, kind, value, mean});
  }
  std::printf("%s", table.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];

  std::string socket_path, tenant, spec_file, job, shard;
  int reduced_m = 0;
  long cap = 200'000;
  std::size_t from = 0;
  bool follow = false, wait = false, raw_json = false, prometheus = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage();
        return argv[++i];
      };
      if (arg == "--socket") socket_path = next();
      else if (arg == "--tenant") tenant = next();
      else if (arg == "--spec") spec_file = next();
      else if (arg == "--reduced") reduced_m = std::stoi(next());
      else if (arg == "--cap") cap = std::stol(next());
      else if (arg == "--job") job = next();
      else if (arg == "--from") from = std::stoul(next());
      else if (arg == "--follow") follow = true;
      else if (arg == "--wait") wait = true;
      else if (arg == "--json") raw_json = true;
      else if (arg == "--prometheus") prometheus = true;
      else if (arg == "--shard") shard = next();
      else usage();
    }
    if (socket_path.empty()) usage();

    tcgrid::util::Fd fd = tcgrid::util::connect_address(socket_path);
    LineChannel ch(fd.get());

    if (command == "submit") {
      if (tenant.empty() || (spec_file.empty() && reduced_m == 0)) usage();
      json::Value spec_value;
      if (!spec_file.empty()) {
        spec_value = json::parse(read_file(spec_file));
      } else {
        spec_value = tcgrid::api::spec_to_json(
            tcgrid::api::ExperimentSpec::reduced(reduced_m, cap));
      }
      const std::string response =
          roundtrip(ch, tcgrid::serve::submit_request(tenant, spec_value, job));
      check_ok(response);
      std::fprintf(stderr, "%s\n", response.c_str());
      if (follow) {
        const json::Value ack = json::parse(response);
        const std::string job_id = ack.find("job")->as_string();
        if (!ch.write_line(tcgrid::serve::results_request(job_id, 0, /*wait=*/true))) {
          throw std::runtime_error("server closed the connection");
        }
        std::fprintf(stderr, "%s\n", stream_rows(ch).c_str());
      }
    } else if (command == "status") {
      if (job.empty()) usage();
      const std::string response = roundtrip(ch, tcgrid::serve::status_request(job));
      check_ok(response);
      std::printf("%s\n", response.c_str());
    } else if (command == "results") {
      if (job.empty()) usage();
      if (!ch.write_line(tcgrid::serve::results_request(job, from, wait))) {
        throw std::runtime_error("server closed the connection");
      }
      std::fprintf(stderr, "%s\n", stream_rows(ch).c_str());
    } else if (command == "cancel") {
      if (job.empty()) usage();
      const std::string response = roundtrip(ch, tcgrid::serve::cancel_request(job));
      check_ok(response);
      std::printf("%s\n", response.c_str());
    } else if (command == "counters") {
      const std::string response = roundtrip(ch, tcgrid::serve::counters_request());
      check_ok(response);
      if (raw_json) std::printf("%s\n", response.c_str());
      else print_counters_table(json::parse(response));
    } else if (command == "metrics") {
      const std::string response = roundtrip(
          ch, tcgrid::serve::metrics_request(prometheus ? "prometheus" : "json"));
      check_ok(response);
      if (prometheus) {
        // The exposition text rides inside the JSON response (the protocol
        // is line-based); unwrap it for piping into a scrape file.
        std::printf("%s", json::parse(response).find("prometheus")->as_string().c_str());
      } else if (raw_json) {
        std::printf("%s\n", response.c_str());
      } else {
        print_metrics_table(json::parse(response));
      }
    } else if (command == "register") {
      if (shard.empty()) usage();
      const std::string response =
          roundtrip(ch, tcgrid::serve::register_request(shard));
      check_ok(response);
      std::printf("%s\n", response.c_str());
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_client: %s\n", e.what());
    return 1;
  }
  return 0;
}
